#include "core/annealing.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/energy_evaluator.h"
#include "obs/obs.h"
#include "util/thread_pool.h"

namespace owan::core {

std::optional<Topology> ComputeNeighbor(const Topology& s, util::Rng& rng,
                                        const std::vector<int>* port_budget) {
  const std::vector<Link> links = s.Links();
  constexpr int kMaxTries = 32;

  // Re-home move: only available when dark ports exist.
  std::vector<net::NodeId> free_sites;
  if (port_budget && !links.empty()) {
    for (net::NodeId v = 0; v < s.NumSites(); ++v) {
      if (s.PortsUsed(v) < (*port_budget)[static_cast<size_t>(v)]) {
        free_sites.push_back(v);
      }
    }
  }
  auto rehome = [&]() -> std::optional<Topology> {
    for (int attempt = 0; attempt < kMaxTries; ++attempt) {
      const Link& l = links[rng.Index(links.size())];
      net::NodeId keep = l.u, drop = l.v;
      if (rng.Chance(0.5)) std::swap(keep, drop);
      const net::NodeId w = free_sites[rng.Index(free_sites.size())];
      if (w == keep || w == drop) continue;
      Topology t = s;
      t.AddUnits(keep, drop, -1);
      t.AddUnits(keep, w, +1);
      return t;
    }
    return std::nullopt;
  };
  if (!free_sites.empty() && rng.Chance(0.5)) {
    if (auto t = rehome()) return t;
  }

  if (links.size() >= 2) {
    for (int attempt = 0; attempt < kMaxTries; ++attempt) {
      const size_t i = rng.Index(links.size());
      size_t j = rng.Index(links.size());
      if (i == j) continue;
      net::NodeId u = links[i].u, v = links[i].v;
      net::NodeId p = links[j].u, q = links[j].v;
      // Randomly flip one link's orientation so both pairings are reachable.
      if (rng.Chance(0.5)) std::swap(p, q);
      // New links (u,p) and (v,q) must not be self loops.
      if (u == p || v == q) {
        std::swap(p, q);
        if (u == p || v == q) continue;
      }
      Topology t = s;
      t.AddUnits(u, v, -1);
      t.AddUnits(p, q, -1);
      t.AddUnits(u, p, +1);
      t.AddUnits(v, q, +1);
      // Links sharing a node can make the rotation a no-op (e.g. removing
      // (u,v),(v,q) and adding them back); retry for a real move.
      if (t == s) continue;
      return t;
    }
  }
  // Rotation has no effective move on degenerate shapes (a lone link, a
  // triangle whose rotations map to itself). If dark ports remain —
  // typical right after failures — fall back to re-homing so the search
  // can still reshape the surviving topology instead of going inert.
  if (!free_sites.empty()) return rehome();
  return std::nullopt;
}

namespace {

// Outcome of one annealing chain, before the adoption guard. Carries the
// chain-start snapshot so the caller can apply the guard with the right
// baseline (the chain's own start for the classic single-chain path; the
// current topology for multi-chain selection).
struct ChainResult {
  Topology best_topology;
  double best_energy = 0.0;
  std::optional<ProvisionedState> state;
  RoutingOutcome routing;
  int iterations = 0;
  int accepted = 0;
  int best_dist = 0;
  int best_starved = 0;

  Topology start_topology;
  double start_energy = 0.0;
  std::optional<ProvisionedState> start_state;
  RoutingOutcome start_routing;
  int start_starved = 0;
};

int StarvedServed(const std::vector<size_t>& starved,
                  const RoutingOutcome& r) {
  int n = 0;
  for (size_t i : starved) {
    if (r.allocations[i].TotalRate() > 1e-9) ++n;
  }
  return n;
}

// Wall-clock compute budget (AnnealOptions::time_budget_s). Unset = no
// deadline; the clock is only ever consulted when a budget was requested,
// so default runs stay bit-reproducible.
using Deadline = std::optional<std::chrono::steady_clock::time_point>;

bool Expired(const Deadline& d) {
  return d.has_value() && std::chrono::steady_clock::now() >= *d;
}

// Random neighbor moves that shuffle a cold start (warm_start = false); the
// perturbed chains of a multi-chain search take up to as many.
constexpr int kColdStartMoves = 64;

// Serial chain (batch_size <= 1): the classic one-neighbor Metropolis walk,
// evaluated through the chain's EnergyEvaluator. The evaluator mutates one
// ProvisionedState in place (rolling back rejected moves exactly), reuses
// cached per-pair path sets across iterations, and short-circuits revisited
// topologies through its transposition table — while producing bit-for-bit
// the energies, RNG stream, and best-state snapshots of the old
// copy-everything loop (the PR 1 golden tests pin this).
ChainResult RunChainSerial(const Topology& current, Topology start,
                           const optical::OpticalNetwork& blank_optical,
                           const std::vector<TransferDemand>& demands,
                           const AnnealOptions& options,
                           const std::vector<int>& port_budget,
                           util::Rng& rng,
                           const std::vector<size_t>& starved,
                           EnergyEvaluator& eval, const Deadline& deadline) {
  const EnergyEvaluator::Stats stats_before = eval.stats();
  const EnergyEvaluator::Eval base =
      eval.Reset(blank_optical, start, demands, starved, options.routing,
                 /*reuse_state=*/true);
  double cur_energy = base.energy;

  ChainResult out;
  out.start_topology = start;
  out.start_energy = cur_energy;
  out.start_state = eval.state();
  out.start_routing = eval.EnsureRouting();
  out.start_starved = base.starved_served;
  out.best_topology = start;
  out.best_energy = cur_energy;
  out.state = out.start_state;
  out.routing = out.start_routing;
  out.best_dist = start.DistanceTo(current);
  out.best_starved = out.start_starved;

  Topology cur_topo = std::move(start);

  // Initial temperature = current throughput (Algorithm 1, line 4); guard
  // against an all-idle network.
  const double t0 = cur_energy > 0.0 ? cur_energy : 1.0;
  double temperature = t0;
  const double floor = t0 * options.epsilon_ratio;

  int iters = 0;
  while (temperature > floor && iters < options.max_iterations &&
         !Expired(deadline)) {
    ++iters;
    auto neighbor = ComputeNeighbor(cur_topo, rng, &port_budget);
    if (!neighbor) break;

    EnergyEvaluator::Eval ev;
    {
      OWAN_SPAN_DETAIL(eval_span, "core", "energy.eval");
      ev = eval.Apply(*neighbor);
    }
    const double nb_energy = ev.energy;

    // Track the best state lexicographically: serve starved transfers
    // first, then throughput, then proximity to the current topology (so
    // updates stay incremental). A memo hit can only land in here through
    // the 1e-9 energy band, in which case EnsureRouting re-runs the
    // allocator for the snapshot.
    const int dist = neighbor->DistanceTo(current);
    const bool better =
        ev.starved_served > out.best_starved ||
        (ev.starved_served == out.best_starved &&
         (nb_energy > out.best_energy + 1e-9 ||
          (nb_energy > out.best_energy - 1e-9 && dist < out.best_dist)));
    if (better) {
      out.best_topology = *neighbor;
      out.best_energy = nb_energy;
      out.state = eval.state();
      out.routing = eval.TakeRouting();
      out.best_dist = dist;
      out.best_starved = ev.starved_served;
    }

    // Accept uphill always; downhill with Boltzmann probability.
    bool accept = nb_energy >= cur_energy;
    if (!accept) {
      const double prob = std::exp((nb_energy - cur_energy) / temperature);
      accept = rng.Uniform() < prob;
    }
    if (accept) {
      eval.Accept();
      OWAN_HISTO("anneal.energy_delta", ::owan::obs::Unit::kGigabits,
                 nb_energy - cur_energy);
      cur_topo = std::move(*neighbor);
      cur_energy = nb_energy;
      ++out.accepted;
    } else {
      eval.Reject();
    }
    temperature *= options.alpha;
  }

  out.iterations = iters;

  // Evaluator totals accumulate across slots (the scratch is reused); the
  // registry gets this chain's delta so energy.* counters stay additive.
  const EnergyEvaluator::Stats stats_after = eval.stats();
  OWAN_COUNT_N("energy.evaluations", ::owan::obs::Unit::kOps,
               stats_after.evaluations - stats_before.evaluations);
  OWAN_COUNT_N("energy.memo_hits", ::owan::obs::Unit::kOps,
               stats_after.memo_hits - stats_before.memo_hits);
  OWAN_COUNT_N("energy.routing_runs", ::owan::obs::Unit::kOps,
               stats_after.routing_runs - stats_before.routing_runs);
  OWAN_COUNT_N("energy.pairs_enumerated", ::owan::obs::Unit::kOps,
               stats_after.pairs_enumerated - stats_before.pairs_enumerated);
  OWAN_COUNT_N("energy.pairs_reused", ::owan::obs::Unit::kOps,
               stats_after.pairs_reused - stats_before.pairs_reused);
  OWAN_COUNT_N("energy.graph_rebuilds", ::owan::obs::Unit::kOps,
               stats_after.graph_rebuilds - stats_before.graph_rebuilds);
  return out;
}

// Batched chain (batch_size = B > 1): each temperature step draws up to B
// candidate neighbors serially from the chain's RNG, evaluates them
// concurrently on `pool` (per-candidate state copies — candidates fork from
// the same current state, so in-place evaluation cannot be shared), and
// applies the Metropolis rule to the best of the batch. The RNG is only
// ever touched on the chain's own thread, so results are independent of
// scheduling.
ChainResult RunChainBatched(const Topology& current, Topology start,
                            const optical::OpticalNetwork& blank_optical,
                            const std::vector<TransferDemand>& demands,
                            const AnnealOptions& options,
                            const std::vector<int>& port_budget,
                            util::Rng& rng,
                            const std::vector<size_t>& starved,
                            util::ThreadPool* pool, const Deadline& deadline) {
  ProvisionedState cur_state{blank_optical};
  cur_state.SyncTo(start);
  RoutingOutcome cur_routing = AssignRoutesAndRates(
      cur_state.CapacityGraph(), demands, options.routing);
  double cur_energy = cur_routing.throughput;

  ChainResult out;
  out.start_topology = start;
  out.start_energy = cur_energy;
  out.start_state = cur_state;
  out.start_routing = cur_routing;
  out.start_starved = StarvedServed(starved, cur_routing);
  out.best_topology = start;
  out.best_energy = cur_energy;
  out.state = cur_state;
  out.routing = cur_routing;
  out.best_dist = start.DistanceTo(current);
  out.best_starved = out.start_starved;

  Topology cur_topo = std::move(start);

  const double t0 = cur_energy > 0.0 ? cur_energy : 1.0;
  double temperature = t0;
  const double floor = t0 * options.epsilon_ratio;
  const int batch = std::max(1, options.batch_size);

  // Per-step scratch, allocated once per chain rather than per step.
  std::vector<Topology> cand;
  std::vector<std::optional<ProvisionedState>> states;
  std::vector<RoutingOutcome> routings;
  cand.reserve(static_cast<size_t>(batch));
  states.reserve(static_cast<size_t>(batch));
  routings.reserve(static_cast<size_t>(batch));

  int iters = 0;
  while (temperature > floor && iters < options.max_iterations &&
         !Expired(deadline)) {
    // Draw up to `batch` candidates serially (every draw spends one
    // iteration of the budget), evaluate them concurrently.
    cand.clear();
    bool exhausted = false;
    while (static_cast<int>(cand.size()) < batch &&
           iters < options.max_iterations && temperature > floor) {
      ++iters;
      auto neighbor = ComputeNeighbor(cur_topo, rng, &port_budget);
      if (!neighbor) {
        exhausted = true;
        break;
      }
      cand.push_back(std::move(*neighbor));
    }
    if (cand.empty()) break;  // no neighbor move exists

    states.assign(cand.size(), std::nullopt);
    routings.assign(cand.size(), RoutingOutcome{});
    util::ParallelFor(pool, static_cast<int>(cand.size()), [&](int i) {
      const size_t k = static_cast<size_t>(i);
      ProvisionedState st = cur_state;
      st.SyncTo(cand[k]);
      routings[k] = AssignRoutesAndRates(st.CapacityGraph(), demands,
                                         options.routing);
      states[k] = std::move(st);
    });

    // Select deterministically in index order; Metropolis on the best.
    // Best-state comparisons run on scalars only; the winning candidate's
    // state/routing are materialized once afterwards (moved, not copied,
    // unless the accepted candidate is the same one).
    size_t pick = 0;
    int best_idx = -1;
    for (size_t i = 0; i < cand.size(); ++i) {
      const double energy = routings[i].throughput;
      const int dist = cand[i].DistanceTo(current);
      const int served = StarvedServed(starved, routings[i]);
      const bool better =
          served > out.best_starved ||
          (served == out.best_starved &&
           (energy > out.best_energy + 1e-9 ||
            (energy > out.best_energy - 1e-9 && dist < out.best_dist)));
      if (better) {
        out.best_energy = energy;
        out.best_dist = dist;
        out.best_starved = served;
        best_idx = static_cast<int>(i);
      }
      if (routings[i].throughput > routings[pick].throughput + 1e-12) {
        pick = i;
      }
    }
    const double nb_energy = routings[pick].throughput;
    bool accept = nb_energy >= cur_energy;
    if (!accept) {
      const double prob = std::exp((nb_energy - cur_energy) / temperature);
      accept = rng.Uniform() < prob;
    }
    if (best_idx >= 0) {
      const size_t b = static_cast<size_t>(best_idx);
      out.best_topology = cand[b];
      if (accept && pick == b) {
        out.state = *states[b];
        out.routing = routings[b];
      } else {
        out.state = std::move(*states[b]);
        out.routing = std::move(routings[b]);
      }
    }
    if (accept) {
      OWAN_HISTO("anneal.energy_delta", ::owan::obs::Unit::kGigabits,
                 nb_energy - cur_energy);
      cur_topo = std::move(cand[pick]);
      cur_state = std::move(*states[pick]);
      cur_routing = std::move(routings[pick]);
      cur_energy = nb_energy;
      ++out.accepted;
    }
    // One cooling step per evaluated candidate keeps the schedule aligned
    // with the serial search at equal iteration budgets.
    for (size_t i = 0; i < cand.size(); ++i) temperature *= options.alpha;
    if (exhausted) break;
  }

  out.iterations = iters;
  return out;
}

// One annealing chain (Algorithm 1 minus the adoption guard). With
// batch_size <= 1 this consumes the RNG stream in exactly the pre-parallel
// order, so chain 0 of a multi-chain run — and the whole of a default run —
// is bit-for-bit the classic search.
ChainResult RunChain(const Topology& current,
                     const optical::OpticalNetwork& blank_optical,
                     const std::vector<TransferDemand>& demands,
                     const AnnealOptions& options,
                     const std::vector<int>& port_budget,
                     const std::vector<size_t>& starved, int perturb_moves,
                     util::Rng& rng, util::ThreadPool* pool,
                     EnergyEvaluator& eval, const Deadline& deadline,
                     const Topology* start_override = nullptr) {
  Topology start = start_override != nullptr ? *start_override : current;
  for (int i = 0; i < perturb_moves; ++i) {
    auto t = ComputeNeighbor(start, rng, &port_budget);
    if (t) start = std::move(*t);
  }
  if (std::max(1, options.batch_size) == 1) {
    return RunChainSerial(current, std::move(start), blank_optical, demands,
                          options, port_budget, rng, starved, eval, deadline);
  }
  return RunChainBatched(current, std::move(start), blank_optical, demands,
                         options, port_budget, rng, starved, pool, deadline);
}

// RunChain plus the per-chain telemetry every caller wants: a
// "core"/"anneal.chain" span carrying the chain's index, iteration and
// acceptance counts, plus the global iteration/acceptance counters.
ChainResult RunChainTraced(int chain, const Topology& current,
                           const optical::OpticalNetwork& blank_optical,
                           const std::vector<TransferDemand>& demands,
                           const AnnealOptions& options,
                           const std::vector<int>& port_budget,
                           const std::vector<size_t>& starved,
                           int perturb_moves, util::Rng& rng,
                           util::ThreadPool* pool, EnergyEvaluator& eval,
                           const Deadline& deadline,
                           const Topology* start_override = nullptr) {
  OWAN_SPAN(chain_span, "core", "anneal.chain");
  ChainResult cr =
      RunChain(current, blank_optical, demands, options, port_budget, starved,
               perturb_moves, rng, pool, eval, deadline, start_override);
  chain_span.AddArg("chain", chain);
  chain_span.AddArg("iterations", cr.iterations);
  chain_span.AddArg("accepted", cr.accepted);
  chain_span.AddArg("best_energy", cr.best_energy);
  OWAN_COUNT_N("anneal.iterations", ::owan::obs::Unit::kOps, cr.iterations);
  OWAN_COUNT_N("anneal.accepted", ::owan::obs::Unit::kOps, cr.accepted);
  return cr;
}

// Marginal improvements do not justify taking circuits dark: stick with
// the baseline unless the win clears the adoption threshold — EXCEPT when
// the candidate rescues a starved transfer the baseline cannot serve at
// all (the §3.2 starvation guard must be able to force a reconfiguration,
// not just reorder transfers).
AnnealResult ApplyAdoptionGuard(ChainResult&& cr, const Topology& current,
                                const optical::OpticalNetwork& blank_optical,
                                const std::vector<TransferDemand>& demands,
                                const AnnealOptions& options,
                                const Topology& base_topology,
                                double base_energy,
                                std::optional<ProvisionedState>&& base_state,
                                RoutingOutcome&& base_routing,
                                int base_starved, int total_iterations,
                                int total_accepted) {
  AnnealResult best;
  // The walk's own verdict survives even when the guard keeps the baseline:
  // callers feed it back as the next slot's warm hint.
  best.searched_best = cr.best_topology;
  best.searched_energy = cr.best_energy;
  best.searched_starved = cr.best_starved;
  const bool rescues_starved = cr.best_starved > base_starved;
  if (!rescues_starved &&
      cr.best_energy <
          base_energy * (1.0 + options.min_adopt_gain) + 1e-9) {
    best.best_topology = base_topology;
    best.best_energy = base_energy;
    best.state = std::move(base_state);
    best.routing = std::move(base_routing);
  } else {
    OWAN_COUNT("anneal.adoptions");
    best.best_topology = std::move(cr.best_topology);
    best.best_energy = cr.best_energy;
    best.state = std::move(cr.state);
    best.routing = std::move(cr.routing);
  }
  best.iterations = total_iterations;
  best.accepted = total_accepted;
  // Under QoT the walk's state is history-dependent: incremental SyncTo
  // steps can realize different circuits (hence different per-link
  // capacities) than a cold derivation of the same topology. Canonicalize
  // the adopted output by re-realizing from a blank plant, so the installed
  // allocation is a pure function of (plant, topology, demands) — the same
  // derivation checkpoint restore and the invariant checker reproduce.
  // Legacy capacities depend only on unit counts, so this is QoT-only.
  if (blank_optical.qot().enabled) {
    ProvisionedState fresh{blank_optical};
    fresh.SyncTo(best.best_topology);
    best.routing =
        AssignRoutesAndRates(fresh.CapacityGraph(), demands, options.routing);
    best.best_energy = best.routing.throughput;
    best.state = std::move(fresh);
  }
  best.circuit_changes = best.best_topology.DistanceTo(current);
  OWAN_HISTO("anneal.circuit_changes", ::owan::obs::Unit::kOps,
             best.circuit_changes);
  return best;
}

}  // namespace

AnnealResult ComputeNetworkState(const Topology& current,
                                 const optical::OpticalNetwork& blank_optical,
                                 const std::vector<TransferDemand>& demands,
                                 const AnnealOptions& options,
                                 util::Rng& rng, util::ThreadPool* pool,
                                 AnnealScratch* scratch,
                                 const Topology* warm_hint) {
  if (current.NumSites() != blank_optical.NumSites()) {
    throw std::invalid_argument(
        "ComputeNetworkState: topology/plant site count mismatch");
  }
  OWAN_SPAN(anneal_span, "core", "anneal");
  anneal_span.AddArg("num_chains", std::max(1, options.num_chains));
  OWAN_COUNT("anneal.runs");
  Deadline deadline;
  if (options.time_budget_s > 0.0) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(options.time_budget_s));
  }
  // Port budgets come from the surviving plant: transceiver failures and
  // site outages shrink what the search may wire up (§3.4).
  std::vector<int> port_budget;
  port_budget.reserve(static_cast<size_t>(blank_optical.NumSites()));
  for (int v = 0; v < blank_optical.NumSites(); ++v) {
    port_budget.push_back(blank_optical.UsablePorts(v));
  }

  // Indices of transfers past the starvation threshold: the search treats
  // serving them as lexicographically more important than raw throughput.
  std::vector<size_t> starved;
  for (size_t i = 0; i < demands.size(); ++i) {
    if (demands[i].slots_waited >= options.routing.policy.starvation_slots) {
      starved.push_back(i);
    }
  }

  const int num_chains = std::max(1, options.num_chains);
  const int num_threads = std::max(1, options.num_threads);

  // Bare calls that ask for parallelism without supplying a reusable pool
  // get a transient one (num_threads total: the caller participates, so
  // the pool holds num_threads - 1 workers).
  std::unique_ptr<util::ThreadPool> local_pool;
  if (pool == nullptr && num_threads > 1 &&
      (num_chains > 1 || options.batch_size > 1)) {
    local_pool = std::make_unique<util::ThreadPool>(num_threads - 1);
    pool = local_pool.get();
  }

  // Chains evaluate through per-chain EnergyEvaluators. A caller-supplied
  // scratch (OwanTe owns one) carries their path caches across slots;
  // transient callers get call-local evaluators, which still amortize
  // within the chain.
  AnnealScratch local_scratch;
  AnnealScratch& scr = scratch ? *scratch : local_scratch;
  scr.Reserve(num_chains);

  if (num_chains == 1) {
    // Classic single-chain path: identical RNG stream and adoption guard
    // (relative to the chain's own — possibly cold — start) as the
    // pre-parallel implementation.
    ChainResult cr = RunChainTraced(
        0, current, blank_optical, demands, options, port_budget, starved,
        options.warm_start ? 0 : kColdStartMoves, rng, pool,
        scr.ForChain(0), deadline);
    const int iters = cr.iterations;
    const int accepted = cr.accepted;
    Topology base_topology = cr.start_topology;
    double base_energy = cr.start_energy;
    std::optional<ProvisionedState> base_state = std::move(cr.start_state);
    RoutingOutcome base_routing = std::move(cr.start_routing);
    const int base_starved = cr.start_starved;
    return ApplyAdoptionGuard(std::move(cr), current, blank_optical, demands,
                              options, base_topology, base_energy,
                              std::move(base_state), std::move(base_routing),
                              base_starved, iters, accepted);
  }

  // Multi-chain: chain 0 replays the caller's RNG stream from a copy (so
  // the multi-chain best dominates the single-chain result on the same
  // seed); the caller's rng advances once per extra chain, which keeps
  // repeated invocations with the same seed exactly reproducible.
  std::vector<util::Rng> chain_rngs;
  chain_rngs.reserve(static_cast<size_t>(num_chains));
  chain_rngs.push_back(rng);
  for (int c = 1; c < num_chains; ++c) chain_rngs.push_back(rng.Fork());

  // Chain 0 honors warm_start; later chains explore from progressively
  // stronger perturbations of the current topology (capped at the cold
  // start's shuffle length). When the caller supplies a warm hint that
  // fits the current plant (site count and per-site port budgets), chain 1
  // starts from it unperturbed instead — temporal coherence makes the
  // previous slot's searched best a stronger opening than a random shake.
  std::vector<int> perturb(static_cast<size_t>(num_chains), 0);
  perturb[0] = options.warm_start ? 0 : kColdStartMoves;
  for (int c = 1; c < num_chains; ++c) {
    perturb[static_cast<size_t>(c)] =
        std::min(kColdStartMoves, 4 * c);
  }
  const Topology* hint_start = nullptr;
  if (warm_hint != nullptr && warm_hint->NumSites() == current.NumSites()) {
    bool fits = true;
    for (net::NodeId v = 0; v < warm_hint->NumSites(); ++v) {
      if (warm_hint->PortsUsed(v) > port_budget[static_cast<size_t>(v)]) {
        fits = false;
        break;
      }
    }
    if (fits) {
      hint_start = warm_hint;
      perturb[1] = 0;
    }
  }

  std::vector<std::optional<ChainResult>> results(
      static_cast<size_t>(num_chains));
  util::ParallelFor(pool, num_chains, [&](int c) {
    const size_t k = static_cast<size_t>(c);
    results[k] = RunChainTraced(c, current, blank_optical, demands, options,
                                port_budget, starved, perturb[k],
                                chain_rngs[k], pool, scr.ForChain(c),
                                deadline,
                                c == 1 ? hint_start : nullptr);
  });

  // The adoption guard for multi-chain selection is always measured
  // against the *current* topology: perturbed chains have meaningless
  // start energies of their own.
  Topology base_topology = current;
  double base_energy;
  std::optional<ProvisionedState> base_state;
  RoutingOutcome base_routing;
  int base_starved;
  if (options.warm_start) {
    base_energy = results[0]->start_energy;
    base_state = std::move(results[0]->start_state);
    base_routing = std::move(results[0]->start_routing);
    base_starved = results[0]->start_starved;
  } else {
    ProvisionedState s{blank_optical};
    s.SyncTo(current);
    base_routing =
        AssignRoutesAndRates(s.CapacityGraph(), demands, options.routing);
    base_energy = base_routing.throughput;
    base_starved = StarvedServed(starved, base_routing);
    base_state = std::move(s);
  }

  int pick = 0;
  int total_iterations = 0;
  int total_accepted = 0;
  for (int c = 0; c < num_chains; ++c) {
    const ChainResult& a = *results[static_cast<size_t>(c)];
    total_iterations += a.iterations;
    total_accepted += a.accepted;
    if (c == 0) continue;
    const ChainResult& b = *results[static_cast<size_t>(pick)];
    const bool better =
        a.best_starved > b.best_starved ||
        (a.best_starved == b.best_starved &&
         (a.best_energy > b.best_energy + 1e-9 ||
          (a.best_energy > b.best_energy - 1e-9 &&
           a.best_dist < b.best_dist)));
    if (better) pick = c;
  }

  return ApplyAdoptionGuard(std::move(*results[static_cast<size_t>(pick)]),
                            current, blank_optical, demands, options,
                            base_topology, base_energy, std::move(base_state),
                            std::move(base_routing), base_starved,
                            total_iterations, total_accepted);
}

}  // namespace owan::core
