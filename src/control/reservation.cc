#include "control/reservation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/provisioned_state.h"

namespace owan::control {

namespace {

constexpr double kEps = 1e-9;
// Paths per pair on the ledger. Guarantees may need genuinely disjoint
// alternates, which sit deeper in the k-shortest list than TE's working
// paths do.
constexpr int kPathsPerPair = 6;

// Greedy split of `rate` over the ledger's k shortest paths, shortest
// first: each takes the least rate its edges have free in every slot of
// [first, last], net of the paths before it, and holds it on `ledger`.
// Appends the paths taken; returns the rate left over.
double Pack(service::AdmissionController& ledger, net::NodeId src,
            net::NodeId dst, double rate, int64_t first, int64_t last,
            std::vector<core::PathAllocation>& paths) {
  const double slot_seconds = ledger.slot_seconds();
  double remaining = rate;
  for (const net::Path& p : ledger.Paths(src, dst)) {
    if (remaining <= kEps) break;
    double take = remaining;
    for (int64_t s = first; s <= last && take > kEps; ++s) {
      for (net::EdgeId e : p.edges) {
        take = std::min(take, ledger.Free(s, e) / slot_seconds);
      }
    }
    take = std::max(0.0, take);
    if (take <= kEps) continue;
    for (int64_t s = first; s <= last; ++s) {
      ledger.Hold(s, p.edges, take * slot_seconds);
    }
    paths.push_back(core::PathAllocation{p, take});
    remaining -= take;
  }
  return remaining;
}

}  // namespace

ReservationService::ReservationService(const core::Topology& topology,
                                       const optical::OpticalNetwork& optical,
                                       ReservationOptions options)
    : topology_(topology),
      optical_(optical),
      options_(options),
      ledger_(topology.ToGraph(optical.wavelength_capacity()),
              service::AdmissionOptions{options.slot_seconds,
                                        kPathsPerPair}) {
  // Claim the plant's view of the current topology so boosts only use
  // genuinely spare optical resources.
  core::ProvisionedState seed(optical_);
  seed.SyncTo(topology_);
  optical_ = seed.optical();
}

bool ReservationService::ValidWindow(net::NodeId src, net::NodeId dst,
                                     double rate, double start,
                                     double end) const {
  // A window starting in the past would book ledger slots that can never be
  // served (FirstSlot truncates toward zero, so negative starts silently
  // alias onto slot 0 or book negative slot keys); NaN/inf anywhere would
  // poison every residual comparison after it.
  const int n = ledger_.graph().NumNodes();
  return src != dst && src >= 0 && dst >= 0 && src < n && dst < n &&
         std::isfinite(rate) && rate > 0.0 && std::isfinite(start) &&
         start >= 0.0 && std::isfinite(end) && end > start;
}

std::optional<Reservation> ReservationService::Request(
    net::NodeId src, net::NodeId dst, double rate, double start,
    double end) {
  if (!ValidWindow(src, dst, rate, start, end)) return std::nullopt;

  const int64_t first = FirstSlot(start);
  const int64_t last = LastSlot(end);
  Reservation res;
  res.id = next_id_;
  res.src = src;
  res.dst = dst;
  res.rate = rate;
  res.start = start;
  res.end = end;
  double remaining = Pack(ledger_, src, dst, rate, first, last, res.paths);

  // Optical boost: if the packet topology cannot host the leftover, see
  // whether a spare circuit (one wavelength) between the endpoints could —
  // this requires spare ROADM-side resources AND a leftover router port on
  // each end.
  if (remaining > kEps && options_.allow_optical_boost &&
      remaining <= optical_.wavelength_capacity() + kEps) {
    const bool ports_free =
        topology_.PortsUsed(src) < optical_.site(src).router_ports &&
        topology_.PortsUsed(dst) < optical_.site(dst).router_ports;
    if (ports_free) {
      auto circuit = optical_.ProvisionCircuit(src, dst);
      if (circuit) {
        ++boost_circuits_;
        res.used_extra_circuit = true;
        topology_.AddUnits(src, dst, 1);
        const net::Path direct{
            .nodes = {src, dst},
            .edges = {ledger_.AddEdge(src, dst, 1.0,
                                      optical_.wavelength_capacity())},
            .length = 1.0};
        for (int64_t s = first; s <= last; ++s) {
          ledger_.Hold(s, direct.edges, remaining * options_.slot_seconds);
        }
        res.paths.push_back(core::PathAllocation{direct, remaining});
        remaining = 0.0;
      }
    }
  }

  if (remaining > kEps) {  // cannot guarantee
    ledger_.Abandon();
    return std::nullopt;
  }
  ledger_.Commit(res.id);
  ++next_id_;
  reservations_.emplace(res.id, res);
  return res;
}

void ReservationService::Release(int reservation_id) {
  auto it = reservations_.find(reservation_id);
  if (it == reservations_.end()) {
    throw std::invalid_argument("ReservationService: unknown reservation");
  }
  ledger_.ReleaseFrom(reservation_id, FirstSlot(it->second.start));
  // Note: boost circuits stay lit until released topology-side; keeping
  // them is harmless for correctness (capacity only grows).
  reservations_.erase(it);
}

double ReservationService::AvailableRate(net::NodeId src, net::NodeId dst,
                                         double start, double end) const {
  // Mirror Request's guards (a probe rate of 1.0 stands in for "any"):
  // src == dst or a degenerate window can obtain nothing, not "the k
  // shortest self-loops' worth of capacity".
  if (!ValidWindow(src, dst, 1.0, start, end)) return 0.0;
  // Request's own packing on a scratch copy of the ledger, so the answer is
  // exactly what a Request could obtain.
  service::AdmissionController scratch = ledger_;
  std::vector<core::PathAllocation> paths;
  Pack(scratch, src, dst, std::numeric_limits<double>::infinity(),
       FirstSlot(start), LastSlot(end), paths);
  double total = 0.0;
  for (const core::PathAllocation& pa : paths) total += pa.rate;
  return total;
}

}  // namespace owan::control
