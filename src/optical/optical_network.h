#ifndef OWAN_OPTICAL_OPTICAL_NETWORK_H_
#define OWAN_OPTICAL_OPTICAL_NETWORK_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/graph.h"
#include "net/shortest_path.h"
#include "optical/circuit.h"
#include "optical/qot.h"

namespace owan::optical {

// Static description of one WAN site: the ROADM co-located with (at most)
// one router, the number of WAN-facing router ports connected to the ROADM
// (fp_v in the paper), and the number of pre-deployed regenerators (rg_v).
struct SiteInfo {
  std::string name;
  int router_ports = 0;
  int regenerators = 0;
  bool has_router = true;
};

// Static description of one fiber pair between two ROADMs.
struct FiberInfo {
  double length_km = 0.0;
  int num_wavelengths = 0;  // phi in the paper
};

// A site within optical reach of another over the live fiber plant: an
// edge of the regenerator graph (paper Fig. 5a).
struct ReachPeer {
  net::NodeId site = net::kInvalidNode;
  double km = 0.0;  // shortest live fiber distance
};

// How a circuit picks among the wavelengths free along its segment.
// kFirstFit is the classic default; kMostUsed packs popular wavelengths to
// fight fragmentation (better for long-haul continuity); kLeastUsed spreads
// load (fewer collisions on short-lived circuits).
enum class WavelengthPolicy { kFirstFit, kMostUsed, kLeastUsed };

// The optical layer: ROADM sites connected by fibers, plus the dynamic
// resource state (which wavelengths each fiber carries, how many
// regenerators each site has left) and the set of provisioned circuits.
//
// The class is copyable by design: the simulated-annealing energy function
// provisions circuits against a scratch copy when scoring candidate
// topologies, leaving the live network untouched.
class OpticalNetwork {
 public:
  // reach_km is the optical reach (eta); wavelength capacity is theta (Gbps).
  OpticalNetwork(std::vector<SiteInfo> sites, double reach_km,
                 double wavelength_capacity);

  // Adds a fiber pair between sites u and v. Returns the fiber's edge id.
  net::EdgeId AddFiber(net::NodeId u, net::NodeId v, double length_km,
                       int num_wavelengths);

  int NumSites() const { return static_cast<int>(sites_.size()); }
  const SiteInfo& site(net::NodeId v) const { return sites_[v]; }
  const net::Graph& fiber_graph() const { return fiber_graph_; }
  const FiberInfo& fiber(net::EdgeId e) const { return fibers_[e]; }
  int NumFibers() const { return static_cast<int>(fibers_.size()); }

  double reach_km() const { return reach_km_; }
  double wavelength_capacity() const { return wavelength_capacity_; }

  // ---- physical-layer QoT model (optical/qot.h) ----

  const QotOptions& qot() const { return qot_; }
  // Installs the QoT model. Only legal on a plant with no live circuits
  // (existing circuits would carry stale quality); throws otherwise.
  // Disabled options keep legacy hard-reach semantics bit-for-bit.
  void set_qot(const QotOptions& q);

  // Segmentation/pruning reach bound: reach_km() in legacy mode, the
  // single-contiguous-fiber QoT reach when the model is enabled. Heuristic
  // in QoT mode — per-segment SNR stays the authoritative feasibility test.
  double EffectiveReachKm() const { return effective_reach_km_; }

  // Margin-adjusted SNR (dB) of a wavelength-continuous run over `fibers`,
  // including each fiber's current degradation. +inf when QoT is disabled
  // or the run is empty. Sums each fiber's FiberInverseOsnr from a
  // per-fiber cache that AddFiber, set_qot and DegradeFiber /
  // RepairFiberDegradation refresh.
  double PathSnrDb(const std::vector<net::EdgeId>& fibers) const;

  // ---- fiber degradation (SNR loss without a cut) ----
  //
  // Sets the fiber's extra attenuation to `db` (absolute level, spread
  // uniformly over its amplified spans). In QoT mode every circuit crossing
  // the fiber is re-graded: capacities shrink or grow with the new SNR, and
  // circuits that no longer close at any tier are torn down (ids returned).
  // Legacy mode records the level (for checkpointing) but changes nothing
  // operationally. No-op (empty return) when the level is unchanged.
  std::vector<CircuitId> DegradeFiber(net::EdgeId fiber, double db);
  // Clears the fiber's degradation; returns false (no-op) if none was set.
  bool RepairFiberDegradation(net::EdgeId fiber);
  double FiberDegradationDb(net::EdgeId fiber) const {
    return fiber_degrade_db_[fiber];
  }
  bool AnyFiberDegraded() const;

  WavelengthPolicy wavelength_policy() const { return lambda_policy_; }
  void set_wavelength_policy(WavelengthPolicy p) {
    lambda_policy_ = p;
    BumpStamp();
  }

  // Regenerator-balancing ablation: when disabled, circuit search ignores
  // how many regens a site has left (DESIGN.md §4).
  bool balance_regens() const { return balance_regens_; }
  void set_balance_regens(bool b) {
    balance_regens_ = b;
    BumpStamp();
  }

  // Mutation stamp. Every state-changing call (fiber plant edits, circuit
  // lifecycle, policy toggles, failure events) moves the stamp to a fresh
  // process-globally-unique value; copies KEEP the source's stamp. Hence
  // two networks with equal stamps are semantically identical (copies of
  // the same snapshot with no mutations since), which is what the warm
  // slot-reuse path in the energy evaluator needs to certify that the
  // blank plant it derived its state from has not changed underneath it.
  // Equal state does NOT imply equal stamps — this is an identity token,
  // not a content hash.
  uint64_t state_stamp() const { return state_stamp_; }

  // Wavelength indices 0..grid-1 in the order the current policy tries
  // them (ties broken by index for determinism).
  std::vector<int> WavelengthOrder(int grid) const;

  // ---- dynamic resource state ----

  int FreeRegens(net::NodeId v) const { return regens_free_[v]; }
  int FreeWavelengths(net::EdgeId fiber) const;
  bool WavelengthUsed(net::EdgeId fiber, int lambda) const {
    return lambda_used_[fiber][lambda];
  }

  // ---- circuit lifecycle ----

  // Attempts to provision a circuit between src and dst under the reach,
  // wavelength, and regenerator constraints (Algorithm 3, lines 2-14 of the
  // paper). Returns the circuit id, or nullopt if no feasible circuit
  // exists with the current resources.
  std::optional<CircuitId> ProvisionCircuit(net::NodeId src, net::NodeId dst);

  // Provisions a circuit constrained to an explicit fiber route (node
  // sequence over the fiber graph): regeneration points are chosen along
  // the route by a min-regenerator segmentation, then each segment gets a
  // wavelength free on all its fibers. Used for protection paths.
  std::optional<CircuitId> ProvisionCircuitAlongRoute(
      const net::Path& fiber_route);

  // 1+1 protection: provisions a working and a backup circuit on
  // fiber-disjoint routes (Suurballe pair over the fiber plant), so a
  // single fiber cut never kills both. Returns (working, backup).
  std::optional<std::pair<CircuitId, CircuitId>> ProvisionProtectedPair(
      net::NodeId src, net::NodeId dst);

  // Releases a circuit, freeing its wavelengths and regenerators.
  void ReleaseCircuit(CircuitId id);

  // ---- rollback hooks (annealing evaluator) ----
  //
  // The incremental energy evaluator mutates one live OpticalNetwork per
  // chain and must be able to undo a candidate move exactly — same circuit
  // ids, same wavelength bits, same regen counters — so a rolled-back
  // evaluation leaves no trace that could steer later provisioning.

  // Re-commits a previously released circuit verbatim (keeping its id).
  // Throws if the id is live or any of its wavelengths is occupied.
  void RestoreCircuit(const Circuit& c);

  // Id the next provisioned circuit will take.
  CircuitId next_circuit_id() const { return next_circuit_id_; }

  // Rewinds the id counter after rolled-back provisioning so re-running the
  // same provisioning sequence reassigns identical ids. `id` must not be
  // lower than any live circuit's id.
  void RewindCircuitIds(CircuitId id);

  const Circuit& circuit(CircuitId id) const { return circuits_.at(id); }
  const std::map<CircuitId, Circuit>& circuits() const { return circuits_; }
  int NumCircuits() const { return static_cast<int>(circuits_.size()); }

  // All circuits between the given site pair (either direction).
  std::vector<CircuitId> CircuitsBetween(net::NodeId u, net::NodeId v) const;

  // Validates internal resource accounting (used by property tests): every
  // in-use wavelength belongs to exactly one circuit, regen counts add up,
  // every segment respects the optical reach.
  bool CheckInvariants(std::string* error = nullptr) const;

  // Shortest fiber distance (km) between two sites, ignoring resources.
  double FiberDistanceKm(net::NodeId u, net::NodeId v) const;

  // Shortest-path tree over the live fiber plant from `u` — exactly
  // Dijkstra(fiber_graph(), u, !FiberFailed). Served from the fiber-route
  // table: the tree depends only on the fiber graph and the dead-fiber mask,
  // which circuit churn never touches, so every provision reuses it. A copy
  // shares its source's table and starts warm; AddFiber, FailFiber /
  // RestoreFiber, FailSite / RestoreSite and set_qot give the network they
  // are called on a fresh table and leave its copies' tables alone. Safe to
  // call concurrently on copies of one plant.
  const net::SpTree& FiberTree(net::NodeId u) const;

  // Every site v != u with FiberTree(u).dist[v] <= EffectiveReachKm(),
  // ascending by site id: the sites a circuit from `u` reaches without
  // regeneration. From the same table as FiberTree.
  const std::vector<ReachPeer>& ReachPeers(net::NodeId u) const;

  // ---- failure handling (§3.4) ----
  //
  // All fail/restore calls are idempotent: failing an already-failed
  // component (or restoring a live one) is a no-op with an empty/false
  // return, so repeated or out-of-order fault events never corrupt state.

  // Marks a fiber as failed: existing circuits crossing it are torn down
  // (their ids are returned) and no new circuit may use it. No-op (empty
  // return) if the fiber is already failed.
  std::vector<CircuitId> FailFiber(net::EdgeId fiber);
  // Returns false (no-op) if the fiber was not failed. Restoring a fiber
  // does not resurrect the circuits the failure tore down.
  bool RestoreFiber(net::EdgeId fiber);
  // True when the fiber is unusable — failed directly, or dark because an
  // endpoint site is down.
  bool FiberFailed(net::EdgeId fiber) const;
  // Raw per-fiber failure flag, independent of endpoint site state.
  // Checkpoint serialization needs the distinction: a fiber that is merely
  // dark under a site outage must not be recorded as cut.
  bool FiberCut(net::EdgeId fiber) const { return fiber_failed_[fiber]; }

  // Site/ROADM outage: every circuit touching the site is torn down (the
  // ids are returned) and all incident fibers go dark until RestoreSite.
  // No-op (empty return) if the site is already failed.
  std::vector<CircuitId> FailSite(net::NodeId v);
  // Returns false (no-op) if the site was not failed. Fibers that were
  // independently failed stay failed.
  bool RestoreSite(net::NodeId v);
  bool SiteFailed(net::NodeId v) const { return site_failed_[v]; }

  // Transceiver failures: `count` WAN-facing router ports at `v` stop
  // working (clamped to what is left). Returns how many actually failed.
  // Port accounting is network-layer only — callers shrink the topology to
  // the surviving UsablePorts budget.
  int FailPorts(net::NodeId v, int count);
  int RestorePorts(net::NodeId v, int count);
  // router_ports minus failed ports; 0 while the site itself is down.
  int UsablePorts(net::NodeId v) const;
  int FailedPorts(net::NodeId v) const { return ports_failed_[v]; }

  // Regenerator failures: `count` regens at `v` are lost (clamped). Failed
  // regens come out of the free pool first; if that is not enough, live
  // circuits regenerating at `v` are torn down (lowest id first) until the
  // budget is met. Returns the torn-down circuit ids.
  std::vector<CircuitId> FailRegens(net::NodeId v, int count);
  int RestoreRegens(net::NodeId v, int count);
  int FailedRegens(net::NodeId v) const { return regens_failed_[v]; }

 private:
  // (fiber, wavelength) pairs a circuit under construction has taken.
  using Bookings = std::vector<std::pair<net::EdgeId, int>>;

  // Fiber unusable for routing: failed directly or endpoint site down.
  bool FiberDead(net::EdgeId fiber) const;

  // FiberInverseOsnr of the fiber's length and degradation under qot_:
  // what the noise cache holds, computed afresh.
  double FiberNoise(net::EdgeId fiber) const;

  // Whether the policy tries wavelength a before b (WavelengthOrder).
  bool TriesBefore(int a, int b) const;

  // The first wavelength in WavelengthOrder that is free on every fiber of
  // `fibers` (within the smallest grid among them) and not in `booked` on
  // any of them, or -1.
  int PickWavelength(const std::vector<net::EdgeId>& fibers,
                     const Bookings& booked) const;

  // Fills per-segment snr_db and the circuit's capacity_gbps from the
  // current plant state (theta / +inf in legacy mode, per-span accumulation
  // with degradation in QoT mode).
  void GradeCircuit(Circuit& c) const;

  // Tries to realise the given site sequence as a circuit; returns nullopt
  // if some segment lacks fiber path, reach, or a common free wavelength.
  std::optional<Circuit> RealizeSequence(
      const std::vector<net::NodeId>& sites) const;

  // Candidate fiber routes for one circuit segment a->b (the k-shortest
  // loopless paths over non-failed fibers), from the table like FiberTree:
  // the route list depends on the plant and failure flags only — wavelength
  // occupancy merely decides which of them gets used.
  const std::vector<net::Path>& SegmentRoutes(net::NodeId a,
                                              net::NodeId b) const;

  // Gives this network an empty fiber-route table; copies keep theirs.
  // Called by every mutator of the table's key (see FiberTree).
  void ResetFiberRoutes();

  void Commit(Circuit& c);

  // Advances state_stamp_ to a fresh globally-unique value (see
  // state_stamp()). Called by every mutator after its idempotent
  // early-outs, so no-op calls leave the stamp alone.
  void BumpStamp() {
    state_stamp_ = next_stamp_.fetch_add(1, std::memory_order_relaxed);
  }

  std::vector<SiteInfo> sites_;
  net::Graph fiber_graph_;  // edge weight = fiber length (km)
  std::vector<FiberInfo> fibers_;
  double reach_km_;
  double wavelength_capacity_;
  QotOptions qot_;
  double effective_reach_km_;
  std::vector<double> fiber_degrade_db_;  // extra attenuation per fiber (dB)
  // FiberNoise per fiber while QoT is enabled (the only mode that reads
  // it); empty otherwise.
  std::vector<double> fiber_inv_osnr_;

  std::vector<std::vector<bool>> lambda_used_;  // [fiber][wavelength]
  std::vector<int> lambda_usage_;  // global per-index usage (policy input)
  WavelengthPolicy lambda_policy_ = WavelengthPolicy::kFirstFit;
  bool balance_regens_ = true;
  std::vector<bool> fiber_failed_;
  std::vector<bool> site_failed_;
  std::vector<int> ports_failed_;
  std::vector<int> regens_failed_;
  std::vector<int> regens_free_;
  std::map<CircuitId, Circuit> circuits_;
  CircuitId next_circuit_id_ = 0;

  // What depends only on the fiber graph, the dead-fiber mask and
  // EffectiveReachKm(): fiber trees, reach peers and segment routes, each
  // filled on first use (optical_network.cc). Shared with every copy.
  class FiberRouteTable;
  std::shared_ptr<FiberRouteTable> fiber_routes_;

  static std::atomic<uint64_t> next_stamp_;
  uint64_t state_stamp_ = 0;
};

}  // namespace owan::optical

#endif  // OWAN_OPTICAL_OPTICAL_NETWORK_H_
