#ifndef OWAN_CORE_ROUTING_H_
#define OWAN_CORE_ROUTING_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/policy.h"
#include "core/transfer.h"
#include "net/graph.h"

namespace owan::core {

// Cap on enumerated simple paths per (src, dst) pair.
inline constexpr size_t kMaxPathsPerPair = 24;

struct RoutingOptions {
  PolicyOptions policy;
  // Longest routing path considered (hop rounds l = 1..max_hops,
  // Algorithm 3 lines 17-25).
  int max_hops = 4;
  // false (paper Algorithm 3): round l serves every transfer's l-hop paths
  // before anyone uses l+1 hops. true: each transfer exhausts all its path
  // lengths before the next transfer gets anything (the strict SJF of the
  // motivating example's Plan B).
  bool strict_priority = false;
};

struct RoutingOutcome {
  double throughput = 0.0;  // sum of allocated rates (the SA energy)
  std::vector<TransferAllocation> allocations;  // parallel to input demands
};

// The enumerated path set of one (src, dst) pair, with the provenance bits
// the incremental evaluator's cache-invalidation rules need.
struct PairPaths {
  std::vector<net::Path> paths;
  // Paths came from the KShortestPaths fallback (PathsUpToHops found
  // nothing within max_hops): no hop bound applies, and the set depends on
  // global graph structure rather than only the links it traverses.
  bool fallback = false;
  // PathsUpToHops stopped at kMaxPathsPerPair: the set is an incomplete
  // sample, not the full bounded-hop path space.
  bool truncated = false;
};

// Supplies per-pair path sets to AssignRoutesAndRates. The default source
// enumerates fresh per call; the annealing evaluator substitutes a
// persistent cache with delta invalidation. Implementations must return
// exactly what EnumeratePairPaths would return on the same graph.
class PathSource {
 public:
  virtual ~PathSource() = default;
  virtual const PairPaths& PathsFor(net::NodeId src, net::NodeId dst) = 0;
};

// The canonical per-pair enumeration: bounded-hop simple paths, falling back
// to the 2 shortest unbounded paths when the pair is farther apart than
// max_hops (Algorithm 3's length rounds are unbounded; only the enumeration
// is capped for cost).
PairPaths EnumeratePairPaths(const net::Graph& topo, net::NodeId src,
                             net::NodeId dst, const RoutingOptions& options);

// Flat (SoA) working set for the greedy allocator, reusable across runs.
//
// The annealing hot loop runs the allocator hundreds of times per slot on
// graphs that differ by at most a few links. Keeping the working vectors
// (residual capacity, unmet demand, per-demand rates) plus a grant log and
// per-hop-round checkpoints in one arena-style struct buys two things:
//  - zero steady-state allocation: every vector is resized in place;
//  - incremental route repair: a later run whose graph differs only on a
//    known set of links restores the deepest checkpoint no dirty demand had
//    acted by and replays only the remaining hop rounds (see AllocateRates).
//
// The struct is plain data owned by the caller; AllocateRates and
// MaterializeOutcome are the only writers.
struct RoutingScratch {
  // One rate grant: `rate` on path index `path` of `demand`'s pair entry
  // (an index into PathsFor(src, dst).paths at the time of the run). The
  // log is the run's full routing output — RoutingOutcome materializes from
  // it on demand, so the hot loop never copies a Path.
  struct Grant {
    uint32_t demand = 0;
    uint32_t path = 0;
    double rate = 0.0;
  };

  // Allocator state snapshot after one stage (0 = the starvation pre-pass,
  // l >= 1 = hop round l). Stages ascend but need not be contiguous: a
  // replayed run records only the rounds it actually executed.
  struct Checkpoint {
    int stage = 0;
    std::vector<double> residual;  // per edge, in the run's edge-id space
    std::vector<double> unmet;     // per demand
    std::vector<double> rates;     // per demand
    double throughput = 0.0;
    size_t grant_count = 0;
  };

  // ---- last-run outputs (meaningful while run_valid) ----
  bool run_valid = false;
  double throughput = 0.0;
  std::vector<double> rates;  // per demand, == materialized TotalRate()
  std::vector<Grant> grants;  // global serve order
  // First hop round each demand can act in (its shortest path's hop count);
  // INT_MAX when it has no usable paths. Repair uses it to bound how early
  // a dirty demand's grants can start.
  std::vector<int> min_hop;

  // ---- replay support ----
  bool record_checkpoints = true;  // one-shot callers turn this off
  bool ckpt_valid = false;         // checkpoints describe the last run
  std::vector<Checkpoint> ckpts;   // ascending stage; [0] is stage 0
  // The last run's edge-id space: edge id -> canonical endpoints. Replay
  // across a graph rebuild rewrites kept checkpoints through this map.
  std::vector<std::pair<net::NodeId, net::NodeId>> ckpt_edges;

  // ---- cached schedule order (demand set + policy are per-slot stable) ----
  bool order_valid = false;
  std::vector<size_t> order;

  void Invalidate() {
    run_valid = false;
    ckpt_valid = false;
    order_valid = false;
  }

  // ---- internal temporaries (reused, never read across runs) ----
  std::vector<double> residual;
  std::vector<double> unmet;
  std::vector<uint32_t> cursor;
  std::vector<const PairPaths*> pair;
  std::unordered_map<uint64_t, int32_t> edge_remap;
};

// What changed since the run `RoutingScratch` describes — computed by the
// caller (the energy evaluator knows the topology diff and which path-cache
// entries it invalidated). All fields describe the CURRENT graph.
struct RepairHints {
  // Nothing changed: the previous run's outputs are the answer.
  bool no_changes = false;
  // Current-graph ids of edges whose capacity differs from the last run
  // (including edges that appeared). Restored checkpoints reset these to
  // full capacity: no clean-prefix grant ever touched them.
  std::vector<net::EdgeId> changed_edges;
  // Edge ids are unchanged from the last run (capacity-only diff); replay
  // skips the endpoint-keyed checkpoint rewrite.
  bool edge_ids_stable = false;
  // Minimum hop round any dirty demand (one whose path set or traversed
  // capacities changed) can act in. Grants in rounds before it — and the
  // stage-0 pre-pass — are bit-identical to a fresh run, so they are
  // restored from a checkpoint instead of recomputed.
  int restart_round = 1;
};

// The allocator core: Algorithm 3 step 2 over `paths`, writing rates, the
// grant log, and checkpoints into `s`; returns the throughput (the SA
// energy). With `repair` null (or no usable checkpoint) it runs from
// scratch — bit-for-bit the classic AssignRoutesAndRates serve order. With
// repair hints it restores the deepest checkpoint at a stage below
// restart_round and replays the remaining hop rounds, which is
// grant-identical: a clean demand's paths traverse no changed link, so the
// restored prefix equals the fresh run's, and every dirty demand's grants
// start at or after restart_round by construction.
double AllocateRates(const net::Graph& topo,
                     const std::vector<TransferDemand>& demands,
                     const RoutingOptions& options, PathSource& paths,
                     RoutingScratch& s, const RepairHints* repair = nullptr);

// Expands the grant log into the classic RoutingOutcome (Path copies and
// all). `paths` must still serve the path sets of the run that filled `s`.
RoutingOutcome MaterializeOutcome(const std::vector<TransferDemand>& demands,
                                  PathSource& paths, const RoutingScratch& s);

// Algorithm 3, step 2: assigns multi-path routes and rates over the given
// network-layer capacity graph. Transfers are ordered by the scheduling
// policy; round l considers only paths of exactly l hops, so higher-priority
// transfers claim short paths before anyone may use long ones. Convenience
// wrapper over AllocateRates + MaterializeOutcome with a one-shot scratch.
//
// `paths` (optional) overrides path enumeration; when null a fresh flat
// per-pair cache is built for the call.
RoutingOutcome AssignRoutesAndRates(const net::Graph& topo,
                                    const std::vector<TransferDemand>& demands,
                                    const RoutingOptions& options,
                                    PathSource* paths = nullptr);

// Convenience: just the throughput (used as the annealing energy).
double ComputeThroughput(const net::Graph& topo,
                         const std::vector<TransferDemand>& demands,
                         const RoutingOptions& options);

}  // namespace owan::core

#endif  // OWAN_CORE_ROUTING_H_
