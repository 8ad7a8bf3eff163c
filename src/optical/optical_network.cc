#include "optical/optical_network.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "net/shortest_path.h"
#include "obs/obs.h"
#include "optical/regen_graph.h"

namespace owan::optical {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// How many regenerator-site sequences and how many alternate fiber paths per
// segment the provisioner tries before giving up.
constexpr int kMaxSequences = 8;
constexpr int kMaxFiberPathsPerSegment = 4;

// A fixed-size array of fill-once pointers; owns what they point to.
template <typename T>
struct SlotArray {
  explicit SlotArray(size_t n) : slots(n) {}
  ~SlotArray() {
    for (auto& s : slots) delete s.load(std::memory_order_relaxed);
  }
  SlotArray(const SlotArray&) = delete;
  SlotArray& operator=(const SlotArray&) = delete;
  std::vector<std::atomic<T*>> slots;
};

// *slot, after publishing make() into it if it is empty. Publication is one
// compare-and-swap, so racers agree on a single winner; a loser frees its
// own value and returns the winner's. Sets `*won` when this call won.
template <typename T, typename Make>
T& LoadOrPublish(std::atomic<T*>& slot, const Make& make,
                 bool* won = nullptr) {
  T* cur = slot.load(std::memory_order_acquire);
  if (cur != nullptr) return *cur;
  std::unique_ptr<T> mine = make();
  if (!slot.compare_exchange_strong(cur, mine.get(),
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
    return *cur;
  }
  if (won != nullptr) *won = true;
  return *mine.release();
}

// A table entry: built by `build` and published on first use, immutable
// after. `build` is a pure function of the table's key, so a racer that
// loses the publish built the same value. Only the winner counts a fill,
// so the count does not depend on thread timing.
template <typename T, typename Build>
const T& Fill(std::atomic<const T*>& slot, const Build& build) {
  bool won = false;
  const T& entry = LoadOrPublish(
      slot, [&] { return std::make_unique<const T>(build()); }, &won);
  if (won) OWAN_COUNT("optical.fiber_table_fills");
  return entry;
}
}  // namespace

// The table behind FiberTree, ReachPeers and SegmentRoutes. Its key is the
// fiber graph, the dead-fiber mask and EffectiveReachKm(); every network
// holding it has the same key, so any of them may fill an entry, from any
// thread. The slot arrays are built on the first lookup, not with the
// table, so building a plant fiber by fiber allocates nothing per fiber.
class OpticalNetwork::FiberRouteTable {
 public:
  using Routes = std::vector<net::Path>;

  explicit FiberRouteTable(int num_sites)
      : n_(static_cast<size_t>(num_sites)) {}
  ~FiberRouteTable() {
    delete slots_.load(std::memory_order_relaxed);
    delete arcs_.load(std::memory_order_relaxed);
  }
  FiberRouteTable(const FiberRouteTable&) = delete;
  FiberRouteTable& operator=(const FiberRouteTable&) = delete;

  // The live fiber arcs, after publishing make() if they are not there
  // yet. Not a fill: the arcs are no route.
  template <typename Make>
  const net::Csr& Arcs(const Make& make) {
    return LoadOrPublish(arcs_, make);
  }
  std::atomic<const net::SpTree*>& Tree(net::NodeId u) {
    return Get().trees.slots[Index(u)];
  }
  std::atomic<const std::vector<ReachPeer>*>& Peers(net::NodeId u) {
    return Get().peers.slots[Index(u)];
  }
  std::atomic<const Routes*>& Route(net::NodeId a, net::NodeId b) {
    return Get().routes.slots[Index(a) * n_ + Index(b)];
  }

 private:
  struct Slots {
    explicit Slots(size_t n) : trees(n), peers(n), routes(n * n) {}
    SlotArray<const net::SpTree> trees;             // [site]
    SlotArray<const std::vector<ReachPeer>> peers;  // [site]
    SlotArray<const Routes> routes;                 // [a * n + b]
  };

  static size_t Index(net::NodeId v) { return static_cast<size_t>(v); }
  Slots& Get() {
    return LoadOrPublish(slots_, [&] { return std::make_unique<Slots>(n_); });
  }

  size_t n_;
  std::atomic<Slots*> slots_{nullptr};
  std::atomic<const net::Csr*> arcs_{nullptr};
};

// Stamp 0 is reserved for "never stamped"; fresh constructions start at 1.
std::atomic<uint64_t> OpticalNetwork::next_stamp_{1};

std::string ToString(const Circuit& c) {
  std::ostringstream os;
  os << "circuit#" << c.id << " " << c.src << "->" << c.dst << " via [";
  for (size_t i = 0; i < c.regen_sites.size(); ++i) {
    if (i) os << ",";
    os << c.regen_sites[i];
  }
  os << "] segments=" << c.segments.size()
     << " length=" << c.TotalLengthKm() << "km";
  return os.str();
}

OpticalNetwork::OpticalNetwork(std::vector<SiteInfo> sites, double reach_km,
                               double wavelength_capacity)
    : sites_(std::move(sites)),
      fiber_graph_(static_cast<int>(sites_.size())),
      reach_km_(reach_km),
      wavelength_capacity_(wavelength_capacity),
      effective_reach_km_(reach_km) {
  if (reach_km_ <= 0.0 || wavelength_capacity_ <= 0.0) {
    throw std::invalid_argument("OpticalNetwork: reach and capacity > 0");
  }
  regens_free_.reserve(sites_.size());
  for (const SiteInfo& s : sites_) regens_free_.push_back(s.regenerators);
  site_failed_.assign(sites_.size(), false);
  ports_failed_.assign(sites_.size(), 0);
  regens_failed_.assign(sites_.size(), 0);
  ResetFiberRoutes();
  BumpStamp();
}

void OpticalNetwork::ResetFiberRoutes() {
  fiber_routes_ = std::make_shared<FiberRouteTable>(NumSites());
}

net::EdgeId OpticalNetwork::AddFiber(net::NodeId u, net::NodeId v,
                                     double length_km, int num_wavelengths) {
  if (length_km <= 0.0 || num_wavelengths <= 0) {
    throw std::invalid_argument("AddFiber: bad length or wavelength count");
  }
  const net::EdgeId id = fiber_graph_.AddEdge(u, v, length_km);
  BumpStamp();
  ResetFiberRoutes();
  fibers_.push_back(FiberInfo{length_km, num_wavelengths});
  lambda_used_.emplace_back(num_wavelengths, false);
  fiber_failed_.push_back(false);
  fiber_degrade_db_.push_back(0.0);
  if (qot_.enabled) fiber_inv_osnr_.push_back(FiberNoise(id));
  return id;
}

double OpticalNetwork::FiberNoise(net::EdgeId fiber) const {
  return FiberInverseOsnr(fibers_[fiber].length_km, fiber_degrade_db_[fiber],
                          qot_);
}

void OpticalNetwork::set_qot(const QotOptions& q) {
  if (!circuits_.empty()) {
    throw std::logic_error("set_qot: plant already has live circuits");
  }
  qot_ = q;
  effective_reach_km_ =
      qot_.enabled ? std::min(EffectiveQotReachKm(qot_), 1e7) : reach_km_;
  BumpStamp();
  ResetFiberRoutes();
  fiber_inv_osnr_.clear();
  if (qot_.enabled) {
    for (net::EdgeId f = 0; f < NumFibers(); ++f) {
      fiber_inv_osnr_.push_back(FiberNoise(f));
    }
  }
}

double OpticalNetwork::PathSnrDb(
    const std::vector<net::EdgeId>& fibers) const {
  if (!qot_.enabled) return kInf;
  double inv = 0.0;
  for (net::EdgeId f : fibers) inv += fiber_inv_osnr_[f];
  return SnrDbFromInverseOsnr(inv, qot_);
}

void OpticalNetwork::GradeCircuit(Circuit& c) const {
  if (!qot_.enabled) {
    for (Segment& s : c.segments) s.snr_db = kInf;
    c.capacity_gbps = wavelength_capacity_;
    return;
  }
  // theta remains the transceiver line-rate ceiling: the modulation table
  // decides how much of it the signal quality sustains, never more. This
  // keeps units * theta a sound upper bound wherever the plant is out of
  // reach (update-stage checks, fixed-topology baselines).
  double cap = wavelength_capacity_;
  for (Segment& s : c.segments) {
    s.snr_db = PathSnrDb(s.fibers);
    cap = std::min(cap, CapacityForSnrGbps(s.snr_db, qot_));
  }
  c.capacity_gbps = c.segments.empty() ? 0.0 : cap;
}

std::vector<CircuitId> OpticalNetwork::DegradeFiber(net::EdgeId fiber,
                                                    double db) {
  if (db < 0.0) throw std::invalid_argument("DegradeFiber: negative dB");
  if (fiber_degrade_db_[fiber] == db) return {};  // unchanged level: no-op
  BumpStamp();
  fiber_degrade_db_[fiber] = db;
  if (!qot_.enabled) return {};  // recorded for checkpoints only
  fiber_inv_osnr_[fiber] = FiberNoise(fiber);
  // Re-grade every circuit crossing the fiber; tear down those that no
  // longer close at any modulation tier (deterministic id order).
  std::vector<CircuitId> victims;
  for (auto& [id, c] : circuits_) {
    bool crosses = false;
    for (const Segment& s : c.segments) {
      if (std::find(s.fibers.begin(), s.fibers.end(), fiber) !=
          s.fibers.end()) {
        crosses = true;
        break;
      }
    }
    if (!crosses) continue;
    GradeCircuit(c);
    if (c.capacity_gbps <= 0.0) victims.push_back(id);
  }
  for (CircuitId id : victims) ReleaseCircuit(id);
  return victims;
}

bool OpticalNetwork::RepairFiberDegradation(net::EdgeId fiber) {
  if (fiber_degrade_db_[fiber] == 0.0) return false;  // nothing set: no-op
  DegradeFiber(fiber, 0.0);  // repair only raises SNR; never tears down
  return true;
}

bool OpticalNetwork::AnyFiberDegraded() const {
  for (double db : fiber_degrade_db_) {
    if (db != 0.0) return true;
  }
  return false;
}

int OpticalNetwork::FreeWavelengths(net::EdgeId fiber) const {
  if (FiberDead(fiber)) return 0;
  int free = 0;
  for (bool used : lambda_used_[fiber]) {
    if (!used) ++free;
  }
  return free;
}

int OpticalNetwork::PickWavelength(const std::vector<net::EdgeId>& fibers,
                                   const Bookings& booked) const {
  int grid = fibers_[fibers.front()].num_wavelengths;
  for (net::EdgeId f : fibers) {
    grid = std::min(grid, fibers_[f].num_wavelengths);
  }
  const auto free = [&](int lambda) {
    for (net::EdgeId f : fibers) {
      if (lambda_used_[f][lambda]) return false;
    }
    for (const auto& [f, l] : booked) {
      if (l == lambda &&
          std::find(fibers.begin(), fibers.end(), f) != fibers.end()) {
        return false;
      }
    }
    return true;
  };
  for (int lambda = 0; lambda < grid; ++lambda) {
    if (free(lambda)) return lambda;
  }
  return -1;
}

double OpticalNetwork::FiberDistanceKm(net::NodeId u, net::NodeId v) const {
  return FiberTree(u).dist[v];
}

const net::Csr& OpticalNetwork::LiveFiberArcs() const {
  return fiber_routes_->Arcs([&] {
    net::DeadMask dead(static_cast<size_t>(NumFibers()));
    for (net::EdgeId e = 0; e < NumFibers(); ++e) {
      dead[static_cast<size_t>(e)] = FiberDead(e);
    }
    return std::make_unique<const net::Csr>(net::ToCsr(fiber_graph_, &dead));
  });
}

const net::SpTree& OpticalNetwork::FiberTree(net::NodeId u) const {
  return Fill(fiber_routes_->Tree(u),
              [&] { return net::Dijkstra(LiveFiberArcs(), u); });
}

const std::vector<ReachPeer>& OpticalNetwork::ReachPeers(net::NodeId u) const {
  return Fill(fiber_routes_->Peers(u), [&] {
    const net::SpTree& tree = FiberTree(u);
    std::vector<ReachPeer> peers;
    for (net::NodeId v = 0; v < NumSites(); ++v) {
      if (v != u && tree.Reachable(v) && tree.dist[v] <= effective_reach_km_) {
        peers.push_back(ReachPeer{v, tree.dist[v]});
      }
    }
    return peers;
  });
}

const std::vector<net::Path>& OpticalNetwork::SegmentRoutes(
    net::NodeId a, net::NodeId b) const {
  return Fill(fiber_routes_->Route(a, b), [&] {
    return net::KShortestPaths(LiveFiberArcs(), a, b,
                               kMaxFiberPathsPerSegment);
  });
}

std::optional<Circuit> OpticalNetwork::RealizeSequence(
    std::span<const net::NodeId> seq) const {
  Circuit c;
  c.src = seq.front();
  c.dst = seq.back();
  c.regen_sites.assign(seq.begin() + 1, seq.end() - 1);

  // The circuit's own wavelength bookings, so that two of its segments
  // never double-book a wavelength on a fiber.
  Bookings booked;

  for (size_t i = 0; i + 1 < seq.size(); ++i) {
    // Candidate fiber routes for this segment. Legacy: first route within
    // reach that has a free common wavelength. QoT: SNR-graded — among the
    // routes that close at some modulation tier and have a free wavelength,
    // the highest-capacity one wins (ties to the shorter route; the
    // candidate list is sorted ascending by length).
    const net::Path* best_route = nullptr;
    int best_lambda = -1;
    double best_snr = 0.0;
    double best_cap = 0.0;
    for (const net::Path& route : SegmentRoutes(seq[i], seq[i + 1])) {
      double snr = 0.0;
      double cap = 0.0;
      if (qot_.enabled) {
        snr = PathSnrDb(route.edges);
        cap = CapacityForSnrGbps(snr, qot_);
        if (cap <= 0.0) continue;  // longer routes may still close: keep going
        if (cap <= best_cap) continue;
      } else if (route.length > reach_km_) {
        break;  // sorted ascending; none fit
      }
      const int lambda = PickWavelength(route.edges, booked);
      if (lambda < 0) continue;
      best_route = &route;
      best_lambda = lambda;
      best_snr = snr;
      best_cap = cap;
      if (!qot_.enabled) break;
    }
    if (best_route == nullptr) return std::nullopt;
    Segment s;
    s.fibers = best_route->edges;
    s.wavelength = best_lambda;
    s.length_km = best_route->length;
    s.snr_db = best_snr;
    for (net::EdgeId f : s.fibers) booked.emplace_back(f, best_lambda);
    c.segments.push_back(std::move(s));
  }
  GradeCircuit(c);
  return c;
}

void OpticalNetwork::Commit(Circuit& c) {
  BumpStamp();
  c.id = next_circuit_id_++;
  for (const Segment& s : c.segments) {
    for (net::EdgeId f : s.fibers) {
      lambda_used_[f][s.wavelength] = true;
    }
  }
  for (net::NodeId r : c.regen_sites) {
    --regens_free_[r];
  }
  circuits_.emplace(c.id, c);
}

std::optional<CircuitId> OpticalNetwork::ProvisionCircuit(net::NodeId src,
                                                          net::NodeId dst) {
  if (src == dst || src < 0 || dst < 0 || src >= NumSites() ||
      dst >= NumSites()) {
    return std::nullopt;
  }
  if (site_failed_[src] || site_failed_[dst]) return std::nullopt;
  const RegenGraph rg(*this, src, dst, balance_regens_);
  // Up to kMaxSequences candidates, drawn lazily in the regen graph's order
  // (fewest regens, then shortest fiber distance). A sequence is loopless
  // and its interior sites are regen-graph nodes, which have a free
  // regenerator each, so every candidate fits the regen budget.
  // Legacy mode commits the first realizable sequence. QoT mode keeps the
  // highest-capacity circuit (capacity = min tier over segments; a regen
  // resets the SNR budget, so more regens can mean more capacity), ties
  // going to the earliest candidate. No circuit beats a noiseless one at
  // the theta-capped top tier, so the search stops once `best` reaches it:
  // later candidates could only tie.
  const double ceiling =
      std::min(wavelength_capacity_, CapacityForSnrGbps(kInf, qot_));
  net::YenSearch search(rg.arcs(), src, dst);
  std::optional<Circuit> best;
  for (int tried = 0; tried < kMaxSequences; ++tried) {
    const std::optional<net::YenSearch::Route> route = search.Next();
    if (!route) break;
    auto circuit = RealizeSequence(route->nodes);
    if (!circuit) continue;
    if (!qot_.enabled) {
      Commit(*circuit);
      return circuit->id;
    }
    if (circuit->capacity_gbps <= 0.0) continue;
    if (!best || circuit->capacity_gbps > best->capacity_gbps) {
      best = std::move(circuit);
      if (best->capacity_gbps >= ceiling) break;
    }
  }
  if (best) {
    Commit(*best);
    return best->id;
  }
  return std::nullopt;
}

void OpticalNetwork::ReleaseCircuit(CircuitId id) {
  auto it = circuits_.find(id);
  if (it == circuits_.end()) {
    throw std::invalid_argument("ReleaseCircuit: unknown circuit");
  }
  BumpStamp();
  const Circuit& c = it->second;
  for (const Segment& s : c.segments) {
    for (net::EdgeId f : s.fibers) {
      lambda_used_[f][s.wavelength] = false;
    }
  }
  for (net::NodeId r : c.regen_sites) ++regens_free_[r];
  circuits_.erase(it);
}

void OpticalNetwork::RestoreCircuit(const Circuit& c) {
  if (c.id == kInvalidCircuit || circuits_.count(c.id)) {
    throw std::invalid_argument("RestoreCircuit: id invalid or live");
  }
  for (const Segment& s : c.segments) {
    for (net::EdgeId f : s.fibers) {
      if (lambda_used_[f][s.wavelength]) {
        throw std::logic_error("RestoreCircuit: wavelength occupied");
      }
    }
  }
  BumpStamp();
  for (const Segment& s : c.segments) {
    for (net::EdgeId f : s.fibers) {
      lambda_used_[f][s.wavelength] = true;
    }
  }
  for (net::NodeId r : c.regen_sites) --regens_free_[r];
  // Re-grade rather than trust the caller's copy: quality is a pure
  // function of the plant, so for a genuine rollback this reproduces the
  // stored values exactly, while hand-built circuits get consistent ones.
  Circuit copy = c;
  GradeCircuit(copy);
  circuits_.emplace(c.id, std::move(copy));
}

void OpticalNetwork::RewindCircuitIds(CircuitId id) {
  if (id > next_circuit_id_ ||
      (!circuits_.empty() && id <= circuits_.rbegin()->first)) {
    throw std::invalid_argument("RewindCircuitIds: id out of range");
  }
  BumpStamp();
  next_circuit_id_ = id;
}

bool OpticalNetwork::CheckInvariants(std::string* error) const {
  auto fail = [error](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  // Recompute wavelength occupancy and regen usage from circuits.
  std::vector<std::vector<bool>> lam(lambda_used_.size());
  for (size_t f = 0; f < lambda_used_.size(); ++f) {
    lam[f].assign(lambda_used_[f].size(), false);
  }
  std::vector<int> regen_used(sites_.size(), 0);
  for (const auto& [id, c] : circuits_) {
    (void)id;
    if (c.segments.size() != c.regen_sites.size() + 1) {
      return fail("segment/regen count mismatch in " + ToString(c));
    }
    double regraded_cap = wavelength_capacity_;  // theta caps every tier
    for (const Segment& s : c.segments) {
      if (qot_.enabled) {
        // QoT mode: signal quality, not the hard reach bound, governs
        // feasibility. Stored SNR must match the span physics of the
        // current plant exactly: summed here without the noise cache, in
        // the order PathSnrDb sums it, so a stale cache entry shows up as a
        // mismatch.
        double inv = 0.0;
        for (net::EdgeId f : s.fibers) inv += FiberNoise(f);
        const double snr = SnrDbFromInverseOsnr(inv, qot_);
        if (snr != s.snr_db) {
          return fail("stale segment SNR in " + ToString(c));
        }
        regraded_cap = std::min(regraded_cap, CapacityForSnrGbps(snr, qot_));
      } else if (s.length_km > reach_km_ + 1e-6) {
        return fail("segment exceeds optical reach in " + ToString(c));
      }
      for (net::EdgeId f : s.fibers) {
        if (FiberDead(f)) {
          return fail("live circuit crosses a failed fiber/site in " +
                      ToString(c));
        }
        if (s.wavelength < 0 ||
            s.wavelength >= fibers_[f].num_wavelengths) {
          return fail("wavelength out of grid in " + ToString(c));
        }
        if (lam[f][s.wavelength]) {
          return fail("wavelength double-booked in " + ToString(c));
        }
        lam[f][s.wavelength] = true;
      }
    }
    if (qot_.enabled) {
      if (c.segments.empty()) regraded_cap = 0.0;
      if (c.capacity_gbps != regraded_cap) {
        return fail("capacity out of step with modulation table in " +
                    ToString(c));
      }
      if (c.capacity_gbps <= 0.0) {
        return fail("zero-capacity circuit left live: " + ToString(c));
      }
    } else if (c.capacity_gbps != wavelength_capacity_) {
      return fail("legacy circuit capacity != theta in " + ToString(c));
    }
    for (net::NodeId r : c.regen_sites) ++regen_used[r];
  }
  for (size_t f = 0; f < lambda_used_.size(); ++f) {
    if (lam[f] != lambda_used_[f]) {
      return fail("wavelength occupancy bitmap out of sync on fiber " +
                  std::to_string(f));
    }
  }
  for (size_t v = 0; v < sites_.size(); ++v) {
    if (regens_free_[v] + regen_used[v] + regens_failed_[v] !=
        sites_[v].regenerators) {
      return fail("regenerator accounting broken at site " +
                  std::to_string(v));
    }
    if (regens_free_[v] < 0) {
      return fail("negative free regens at site " + std::to_string(v));
    }
    if (regens_failed_[v] < 0 ||
        regens_failed_[v] > sites_[v].regenerators) {
      return fail("failed-regen count out of range at site " +
                  std::to_string(v));
    }
    if (ports_failed_[v] < 0 || ports_failed_[v] > sites_[v].router_ports) {
      return fail("failed-port count out of range at site " +
                  std::to_string(v));
    }
  }
  return true;
}

bool OpticalNetwork::FiberDead(net::EdgeId fiber) const {
  if (fiber_failed_[fiber]) return true;
  const net::Edge& e = fiber_graph_.edge(fiber);
  return site_failed_[e.u] || site_failed_[e.v];
}

bool OpticalNetwork::FiberFailed(net::EdgeId fiber) const {
  return FiberDead(fiber);
}

std::vector<CircuitId> OpticalNetwork::FailFiber(net::EdgeId fiber) {
  if (fiber_failed_[fiber]) return {};  // repeated cut: no-op
  BumpStamp();
  std::vector<CircuitId> victims;
  for (const auto& [id, c] : circuits_) {
    for (const Segment& s : c.segments) {
      if (std::find(s.fibers.begin(), s.fibers.end(), fiber) !=
          s.fibers.end()) {
        victims.push_back(id);
        break;
      }
    }
  }
  for (CircuitId id : victims) ReleaseCircuit(id);
  fiber_failed_[fiber] = true;
  ResetFiberRoutes();
  return victims;
}

bool OpticalNetwork::RestoreFiber(net::EdgeId fiber) {
  if (!fiber_failed_[fiber]) return false;  // repair of a live fiber: no-op
  BumpStamp();
  fiber_failed_[fiber] = false;
  ResetFiberRoutes();
  return true;
}

std::vector<CircuitId> OpticalNetwork::FailSite(net::NodeId v) {
  if (site_failed_[v]) return {};  // repeated outage: no-op
  BumpStamp();
  // Every circuit touching the site dies: terminating there, regenerating
  // there, or routed over an incident fiber.
  std::vector<CircuitId> victims;
  for (const auto& [id, c] : circuits_) {
    bool touches = c.src == v || c.dst == v ||
                   std::find(c.regen_sites.begin(), c.regen_sites.end(), v) !=
                       c.regen_sites.end();
    for (size_t si = 0; !touches && si < c.segments.size(); ++si) {
      for (net::EdgeId f : c.segments[si].fibers) {
        const net::Edge& e = fiber_graph_.edge(f);
        if (e.u == v || e.v == v) {
          touches = true;
          break;
        }
      }
    }
    if (touches) victims.push_back(id);
  }
  for (CircuitId id : victims) ReleaseCircuit(id);
  site_failed_[v] = true;
  ResetFiberRoutes();
  return victims;
}

bool OpticalNetwork::RestoreSite(net::NodeId v) {
  if (!site_failed_[v]) return false;
  BumpStamp();
  site_failed_[v] = false;
  ResetFiberRoutes();
  return true;
}

int OpticalNetwork::UsablePorts(net::NodeId v) const {
  if (site_failed_[v]) return 0;
  return sites_[v].router_ports - ports_failed_[v];
}

int OpticalNetwork::FailPorts(net::NodeId v, int count) {
  const int lost =
      std::clamp(count, 0, sites_[v].router_ports - ports_failed_[v]);
  if (lost > 0) BumpStamp();
  ports_failed_[v] += lost;
  return lost;
}

int OpticalNetwork::RestorePorts(net::NodeId v, int count) {
  const int restored = std::clamp(count, 0, ports_failed_[v]);
  if (restored > 0) BumpStamp();
  ports_failed_[v] -= restored;
  return restored;
}

std::vector<CircuitId> OpticalNetwork::FailRegens(net::NodeId v, int count) {
  const int take =
      std::clamp(count, 0, sites_[v].regenerators - regens_failed_[v]);
  if (take > 0) BumpStamp();
  int need = take;
  std::vector<CircuitId> victims;
  auto drain_free = [&] {
    const int from_free = std::min(need, regens_free_[v]);
    regens_free_[v] -= from_free;
    need -= from_free;
  };
  drain_free();
  while (need > 0) {
    // Free pool exhausted: tear down the lowest-id circuit regenerating at
    // v; its release returns regens to the pool for the next drain.
    CircuitId victim = kInvalidCircuit;
    for (const auto& [id, c] : circuits_) {
      if (std::find(c.regen_sites.begin(), c.regen_sites.end(), v) !=
          c.regen_sites.end()) {
        victim = id;
        break;
      }
    }
    if (victim == kInvalidCircuit) break;  // accounting says this can't happen
    ReleaseCircuit(victim);
    victims.push_back(victim);
    drain_free();
  }
  regens_failed_[v] += take - need;
  return victims;
}

int OpticalNetwork::RestoreRegens(net::NodeId v, int count) {
  const int restored = std::clamp(count, 0, regens_failed_[v]);
  if (restored > 0) BumpStamp();
  regens_failed_[v] -= restored;
  regens_free_[v] += restored;
  return restored;
}

}  // namespace owan::optical
