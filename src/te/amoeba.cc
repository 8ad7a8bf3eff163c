#include "te/amoeba.h"

#include <algorithm>
#include <vector>

namespace owan::te {

namespace {

constexpr double kEps = 1e-7;

// The path a booking's edges trace from `src`.
net::Path PathAlong(const net::Graph& g, net::NodeId src,
                    const std::vector<net::EdgeId>& edges) {
  net::Path p;
  p.edges = edges;
  p.nodes.reserve(edges.size() + 1);
  p.nodes.push_back(src);
  for (net::EdgeId e : edges) {
    p.nodes.push_back(g.edge(e).Other(p.nodes.back()));
    p.length += g.edge(e).weight;
  }
  return p;
}

}  // namespace

AmoebaTe::AmoebaTe(const net::Graph& fixed_topology, double slot_seconds,
                   int k_paths)
    : ledger_(fixed_topology,
              service::AdmissionOptions{slot_seconds, k_paths}) {}

bool AmoebaTe::Admit(const core::Request& request, double now) {
  if (!request.HasDeadline()) return true;  // only deadline traffic managed
  // A pending answer (window open, capacity short) is a reject: Amoeba
  // never re-offers.
  if (ledger_.Offer(request, now) != service::Admission::kAdmitted) {
    ++rejected_;
    return false;
  }
  booked_src_[request.id] = request.src;
  ++admitted_;
  return true;
}

core::TeOutput AmoebaTe::Compute(const core::TeInput& input) {
  const net::Graph& g = ledger_.graph();
  const double slot_seconds = ledger_.slot_seconds();
  core::TeOutput out;
  out.allocations.resize(input.demands.size());
  const int64_t slot =
      static_cast<int64_t>((input.now + slot_seconds * 0.5) / slot_seconds);

  // Residual rate for best-effort traffic this slot.
  std::vector<double> be_residual(static_cast<size_t>(g.NumEdges()));
  for (net::EdgeId e = 0; e < g.NumEdges(); ++e) {
    be_residual[static_cast<size_t>(e)] = g.edge(e).capacity;
  }

  for (size_t i = 0; i < input.demands.size(); ++i) {
    const core::TransferDemand& d = input.demands[i];
    out.allocations[i].id = d.id;
    const auto* bookings = ledger_.Bookings(d.id, slot);
    if (bookings == nullptr) continue;
    for (const service::AdmissionController::Booking& b : *bookings) {
      const double rate = b.volume / slot_seconds;
      out.allocations[i].paths.push_back(
          core::PathAllocation{PathAlong(g, booked_src_.at(d.id), b.edges),
                               rate});
      for (net::EdgeId e : b.edges) {
        be_residual[static_cast<size_t>(e)] =
            std::max(0.0, be_residual[static_cast<size_t>(e)] - rate);
      }
    }
  }

  // Best-effort pass for unadmitted transfers: earliest deadline first over
  // whatever capacity the reservations left behind.
  std::vector<size_t> order;
  for (size_t i = 0; i < input.demands.size(); ++i) {
    if (!booked_src_.count(input.demands[i].id)) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&input](size_t a, size_t b) {
    const double da = input.demands[a].deadline;
    const double db = input.demands[b].deadline;
    if (da != db) return da < db;
    return input.demands[a].id < input.demands[b].id;
  });
  for (size_t i : order) {
    const core::TransferDemand& d = input.demands[i];
    double want = d.rate_cap;
    for (const net::Path& p : ledger_.Paths(d.src, d.dst)) {
      if (want <= kEps) break;
      double avail = want;
      for (net::EdgeId e : p.edges) {
        avail = std::min(avail, be_residual[static_cast<size_t>(e)]);
      }
      if (avail <= kEps) continue;
      for (net::EdgeId e : p.edges) {
        be_residual[static_cast<size_t>(e)] -= avail;
      }
      out.allocations[i].paths.push_back(core::PathAllocation{p, avail});
      want -= avail;
    }
  }
  return out;
}

}  // namespace owan::te
