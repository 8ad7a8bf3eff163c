#ifndef OWAN_CORE_ANNEALING_H_
#define OWAN_CORE_ANNEALING_H_

#include <optional>

#include "core/energy_evaluator.h"
#include "core/provisioned_state.h"
#include "core/routing.h"
#include "core/topology.h"
#include "core/transfer.h"
#include "util/rng.h"

namespace owan::util {
class ThreadPool;
}

namespace owan::core {

// Algorithm 2: one random neighbor move. Picks two links (u,v) and (p,q),
// removes one unit of capacity from each and adds one unit to (u,p) and
// (v,q) (or the mirrored pairing) — four link changes that leave every
// site's port usage unchanged. Returns nullopt if no valid move exists
// (fewer than two links, or every pairing would self-loop).
//
// When `port_budget` is given (ports per site from the optical plant) and
// some ports are dark — normally only after failures — the move set also
// includes re-homing one endpoint of a link onto a free port, so the search
// can recover capacity the strict rotation could never reach.
std::optional<Topology> ComputeNeighbor(
    const Topology& s, util::Rng& rng,
    const std::vector<int>* port_budget = nullptr);

// Geometric cooling factor per step (Algorithm 1, line 16).
inline constexpr double kCoolingFactor = 0.95;

// The search keeps the current topology unless its best candidate beats it
// by this relative margin (or serves a starved transfer the current one
// cannot). Reconfiguration is not free (circuits go dark for seconds), so
// marginal wins are not worth the churn.
inline constexpr double kMinAdoptGain = 0.02;

struct AnnealOptions {
  // Stop when T < epsilon_ratio * T0.
  double epsilon_ratio = 1e-3;
  // Hard iteration cap per chain (used by the Fig. 10d running-time sweep).
  int max_iterations = 400;
  // Paper default: start from the current topology. false = cold start from
  // a randomly shuffled topology (ablation).
  bool warm_start = true;

  // ---- Parallel search (all default off: the defaults reproduce the
  // paper's single-chain search bit-for-bit, same RNG stream and all) ----
  //
  // Independent annealing chains run per slot: chain 0 replays the
  // single-chain search (warm start, caller's RNG stream); chains 1..K-1
  // start from progressively perturbed topologies with RNG streams forked
  // deterministically from the caller's seed. The lexicographically best
  // chain result (starved transfers served, then energy, then proximity to
  // the current topology) wins.
  int num_chains = 1;
  // Total concurrency used for chains and candidate batches. 1 = fully
  // inline. When ComputeNetworkState is given a ThreadPool it uses that
  // (the reusable path — OwanTe owns one); otherwise num_threads > 1
  // spins up a transient pool for the call.
  int num_threads = 1;
  // Candidate neighbors evaluated concurrently per temperature step within
  // a chain; the Metropolis rule is applied to the best of the batch. 1
  // reproduces the classic one-neighbor step exactly.
  int batch_size = 1;

  RoutingOptions routing;
};

struct AnnealResult {
  Topology best_topology;
  double best_energy = 0.0;
  std::optional<ProvisionedState> state;  // provisioned at best_topology
  RoutingOutcome routing;        // allocation on the realized topology
  int iterations = 0;            // neighbor evaluations across all chains
  int accepted = 0;              // moves accepted across all chains
  int circuit_changes = 0;       // DistanceTo(current) of the best topology

  // The search's own best, before the adoption guard possibly kept the
  // baseline. Consecutive demand matrices are temporally coherent, so a
  // candidate good enough to win the walk — but not good enough to justify
  // reconfiguring this slot — is a strong extra starting point next slot:
  // OwanTe feeds it back through ComputeNetworkState's warm_hint.
  Topology searched_best;
  double searched_energy = 0.0;
  int searched_starved = 0;
};

// Algorithm 1: simulated-annealing search for the next network state.
//
// `current` is this slot's topology; `blank_optical` is the optical plant
// with *no* topology circuits provisioned (the search re-provisions from
// scratch and keeps incremental deltas thereafter). Energy is the total
// throughput achievable for `demands` on the candidate topology.
//
// `pool` (optional) supplies reusable worker threads for multi-chain /
// batched search; with the default options it is never touched. Results
// are deterministic functions of (inputs, seed) — never of thread count
// or scheduling.
//
// `scratch` (optional) carries the per-chain EnergyEvaluators — and with
// them the per-pair path caches, the shared transposition table, and the
// provisioned optical states — across calls, so slot k+1 starts from slot
// k's warm caches instead of enumerating the world again: while the blank
// plant is unchanged (certified by its mutation stamp; see
// EnergyEvaluator::Reset), the next slot SyncTo-diffs from the previous
// slot's final state instead of re-provisioning a fresh plant copy.
// Long-lived callers (OwanTe) should own one; results are identical with
// or without.
//
// `warm_hint` (optional) is a previous slot's searched-best topology. In a
// multi-chain search it replaces the first perturbed chain's start (chain
// 0 keeps replaying the classic walk), exploiting temporal coherence of
// consecutive demand matrices. Ignored for single-chain searches — those
// stay bit-for-bit the paper's walk — and whenever the hint does not fit
// the current plant (site count or port budgets).
AnnealResult ComputeNetworkState(const Topology& current,
                                 const optical::OpticalNetwork& blank_optical,
                                 const std::vector<TransferDemand>& demands,
                                 const AnnealOptions& options,
                                 util::Rng& rng,
                                 util::ThreadPool* pool = nullptr,
                                 AnnealScratch* scratch = nullptr,
                                 const Topology* warm_hint = nullptr);

}  // namespace owan::core

#endif  // OWAN_CORE_ANNEALING_H_
