#include "core/annealing.h"

#include <algorithm>
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

// A point of the search: a topology with its realization, allocation and
// scores.
struct Snapshot {
  Topology topology;
  double energy = 0.0;
  std::optional<ProvisionedState> state;
  RoutingOutcome routing;
  int starved_served = 0;
};

// Outcome of one annealing chain, before the adoption guard: where it
// started and the best state it saw.
struct ChainResult {
  Snapshot start;
  Snapshot best;
  int best_dist = 0;  // best.topology.DistanceTo(current)
  int iterations = 0;
  int accepted = 0;
};

// What every chain of one search reads.
struct Search {
  const Topology& current;
  const optical::OpticalNetwork& blank_optical;
  const std::vector<TransferDemand>& demands;
  const AnnealOptions& options;
  std::vector<int> port_budget;
  std::vector<size_t> starved;  // indices past the starvation threshold
  util::ThreadPool* pool = nullptr;
};

int StarvedServed(const std::vector<size_t>& starved,
                  const RoutingOutcome& r) {
  int n = 0;
  for (size_t i : starved) {
    if (r.allocations[i].TotalRate() > 1e-9) ++n;
  }
  return n;
}

// The order on states: serve starved transfers first (§3.2), then
// throughput beyond a 1e-9 band, then proximity to the current topology
// (so updates stay incremental). True when a state with these scores beats
// the chain's best.
bool Beats(int starved_served, double energy, int dist,
           const ChainResult& than) {
  const Snapshot& b = than.best;
  return starved_served > b.starved_served ||
         (starved_served == b.starved_served &&
          (energy > b.energy + 1e-9 ||
           (energy > b.energy - 1e-9 && dist < than.best_dist)));
}

// `t` realized on a fresh copy of the blank plant and routed: a pure
// function of (plant, topology, demands).
Snapshot Realize(const Search& s, const Topology& t) {
  Snapshot out;
  out.topology = t;
  ProvisionedState st{s.blank_optical};
  st.SyncTo(t);
  out.routing = AssignRoutesAndRates(st.CapacityGraph(), s.demands,
                                     s.options.routing);
  out.energy = out.routing.throughput;
  out.starved_served = StarvedServed(s.starved, out.routing);
  out.state = std::move(st);
  return out;
}

// Random neighbor moves that shuffle a cold start (warm_start = false); the
// perturbed chains of a multi-chain search take up to as many.
constexpr int kColdStartMoves = 64;

// Serial walk (batch_size <= 1): the classic one-neighbor Metropolis walk,
// evaluated through the chain's EnergyEvaluator. The evaluator mutates one
// ProvisionedState in place (rolling back rejected moves exactly), reuses
// cached per-pair path sets across iterations, and short-circuits revisited
// topologies through its transposition table — while producing bit-for-bit
// the energies, RNG stream, and best-state snapshots of the old
// copy-everything loop (tests/core/annealing_parallel_test.cc pins this).
ChainResult WalkSerial(const Search& s, Topology start, util::Rng& rng,
                       EnergyEvaluator& eval) {
  const AnnealOptions& options = s.options;
  const EnergyEvaluator::Stats stats_before = eval.stats();
  const EnergyEvaluator::Eval base =
      eval.Reset(s.blank_optical, start, s.demands, s.starved,
                 options.routing, /*reuse_state=*/true);
  double cur_energy = base.energy;

  ChainResult out;
  out.start.topology = start;
  out.start.energy = cur_energy;
  out.start.state = eval.state();
  out.start.routing = eval.EnsureRouting();
  out.start.starved_served = base.starved_served;
  out.best = out.start;
  out.best_dist = start.DistanceTo(s.current);

  Topology cur_topo = std::move(start);

  // Initial temperature = current throughput (Algorithm 1, line 4); guard
  // against an all-idle network.
  const double t0 = cur_energy > 0.0 ? cur_energy : 1.0;
  double temperature = t0;
  const double floor = t0 * options.epsilon_ratio;

  int iters = 0;
  while (temperature > floor && iters < options.max_iterations) {
    ++iters;
    auto neighbor = ComputeNeighbor(cur_topo, rng, &s.port_budget);
    if (!neighbor) break;

    EnergyEvaluator::Eval ev;
    {
      OWAN_SPAN_DETAIL(eval_span, "core", "energy.eval");
      ev = eval.Apply(*neighbor);
    }
    const double nb_energy = ev.energy;

    // A memo hit can only become the best through the 1e-9 energy band, in
    // which case TakeRouting re-runs the allocator for the snapshot. The
    // snapshot is assigned member by member, so the best state reuses its
    // buffers.
    const int dist = neighbor->DistanceTo(s.current);
    if (Beats(ev.starved_served, nb_energy, dist, out)) {
      out.best.topology = *neighbor;
      out.best.energy = nb_energy;
      out.best.state = eval.state();
      out.best.routing = eval.TakeRouting();
      out.best.starved_served = ev.starved_served;
      out.best_dist = dist;
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
    temperature *= kCoolingFactor;
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

// Batched walk (batch_size = B > 1): each temperature step draws up to B
// candidate neighbors serially from the chain's RNG, evaluates them
// concurrently on the pool (per-candidate state copies — candidates fork
// from the same current state, so in-place evaluation cannot be shared),
// and applies the Metropolis rule to the best of the batch. The RNG is only
// ever touched on the chain's own thread, so results are independent of
// scheduling.
ChainResult WalkBatched(const Search& s, Topology start, util::Rng& rng) {
  const AnnealOptions& options = s.options;
  ChainResult out;
  out.start = Realize(s, start);
  out.best = out.start;
  out.best_dist = start.DistanceTo(s.current);

  Topology cur_topo = std::move(start);
  ProvisionedState cur_state = *out.start.state;
  RoutingOutcome cur_routing = out.start.routing;
  double cur_energy = out.start.energy;

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
  while (temperature > floor && iters < options.max_iterations) {
    // Draw up to `batch` candidates serially (every draw spends one
    // iteration of the budget), evaluate them concurrently.
    cand.clear();
    bool exhausted = false;
    while (static_cast<int>(cand.size()) < batch &&
           iters < options.max_iterations && temperature > floor) {
      ++iters;
      auto neighbor = ComputeNeighbor(cur_topo, rng, &s.port_budget);
      if (!neighbor) {
        exhausted = true;
        break;
      }
      cand.push_back(std::move(*neighbor));
    }
    if (cand.empty()) break;  // no neighbor move exists

    states.assign(cand.size(), std::nullopt);
    routings.assign(cand.size(), RoutingOutcome{});
    util::ParallelFor(s.pool, static_cast<int>(cand.size()), [&](int i) {
      const size_t k = static_cast<size_t>(i);
      ProvisionedState st = cur_state;
      st.SyncTo(cand[k]);
      routings[k] = AssignRoutesAndRates(st.CapacityGraph(), s.demands,
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
      const int dist = cand[i].DistanceTo(s.current);
      const int served = StarvedServed(s.starved, routings[i]);
      if (Beats(served, energy, dist, out)) {
        out.best.energy = energy;
        out.best.starved_served = served;
        out.best_dist = dist;
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
      out.best.topology = cand[b];
      if (accept && pick == b) {
        out.best.state = *states[b];
        out.best.routing = routings[b];
      } else {
        out.best.state = std::move(*states[b]);
        out.best.routing = std::move(routings[b]);
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
    for (size_t i = 0; i < cand.size(); ++i) temperature *= kCoolingFactor;
    if (exhausted) break;
  }

  out.iterations = iters;
  return out;
}

// One annealing chain (Algorithm 1 minus the adoption guard): shuffle
// `start` by `perturb_moves` random moves, walk from there, and report the
// chain under a "core"/"anneal.chain" span and the global iteration and
// acceptance counters. A serial chain on the caller's stream is bit-for-bit
// the classic search.
ChainResult RunChain(const Search& s, int chain, Topology start,
                     int perturb_moves, util::Rng& rng,
                     EnergyEvaluator& eval) {
  OWAN_SPAN(chain_span, "core", "anneal.chain");
  for (int i = 0; i < perturb_moves; ++i) {
    auto t = ComputeNeighbor(start, rng, &s.port_budget);
    if (t) start = std::move(*t);
  }
  ChainResult cr = std::max(1, s.options.batch_size) == 1
                       ? WalkSerial(s, std::move(start), rng, eval)
                       : WalkBatched(s, std::move(start), rng);
  chain_span.AddArg("chain", chain);
  chain_span.AddArg("iterations", cr.iterations);
  chain_span.AddArg("accepted", cr.accepted);
  chain_span.AddArg("best_energy", cr.best.energy);
  OWAN_COUNT_N("anneal.iterations", ::owan::obs::Unit::kOps, cr.iterations);
  OWAN_COUNT_N("anneal.accepted", ::owan::obs::Unit::kOps, cr.accepted);
  return cr;
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

  Search s{current, blank_optical, demands, options, {}, {}, pool};
  // Port budgets come from the surviving plant: transceiver failures and
  // site outages shrink what the search may wire up (§3.4).
  s.port_budget.reserve(static_cast<size_t>(blank_optical.NumSites()));
  for (int v = 0; v < blank_optical.NumSites(); ++v) {
    s.port_budget.push_back(blank_optical.UsablePorts(v));
  }
  // Transfers past the starvation threshold: the search treats serving
  // them as lexicographically more important than raw throughput.
  for (size_t i = 0; i < demands.size(); ++i) {
    if (demands[i].slots_waited >= options.routing.policy.starvation_slots) {
      s.starved.push_back(i);
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
    s.pool = local_pool.get();
  }

  // Chains evaluate through per-chain EnergyEvaluators. A caller-supplied
  // scratch (OwanTe owns one) carries their path caches across slots;
  // transient callers get call-local evaluators, which still amortize
  // within the chain.
  AnnealScratch local_scratch;
  AnnealScratch& scr = scratch ? *scratch : local_scratch;
  scr.Reserve(num_chains);

  // Chain 0 replays the caller's stream, so a multi-chain best dominates
  // the lone chain on the same seed: a lone chain walks on the caller's
  // generator itself, and with more chains chain 0 walks on a copy taken
  // before the forks while the caller's generator advances once per extra
  // chain (so repeated invocations with the same seed reproduce exactly).
  std::vector<util::Rng> rngs(1, rng);
  for (int c = 1; c < num_chains; ++c) rngs.push_back(rng.Fork());

  // Chain 0 honors warm_start; later chains explore from progressively
  // stronger perturbations of the current topology (capped at the cold
  // start's shuffle length). When the caller supplies a warm hint that
  // fits the current plant (site count and per-site port budgets), chain 1
  // starts from it unperturbed instead — temporal coherence makes the
  // previous slot's searched best a stronger opening than a random shake.
  bool hint_fits =
      warm_hint != nullptr && warm_hint->NumSites() == current.NumSites();
  for (net::NodeId v = 0; hint_fits && v < warm_hint->NumSites(); ++v) {
    hint_fits =
        warm_hint->PortsUsed(v) <= s.port_budget[static_cast<size_t>(v)];
  }

  std::vector<ChainResult> results(static_cast<size_t>(num_chains));
  util::ParallelFor(s.pool, num_chains, [&](int c) {
    const size_t k = static_cast<size_t>(c);
    const bool hinted = c == 1 && hint_fits;
    const int moves = c == 0 ? (options.warm_start ? 0 : kColdStartMoves)
                      : hinted ? 0
                               : std::min(kColdStartMoves, 4 * c);
    results[k] = RunChain(s, c, hinted ? *warm_hint : current, moves,
                          num_chains == 1 ? rng : rngs[k], scr.ForChain(c));
  });

  // The adoption baseline is chain 0's start: the current topology on a
  // warm start, and a lone cold chain's own shuffled start. A cold
  // multi-chain search measures against a blank realization of the current
  // topology instead, since its perturbed chains have meaningless start
  // energies of their own.
  Snapshot base = options.warm_start || num_chains == 1
                      ? std::move(results[0].start)
                      : Realize(s, current);

  // Chain 0 stands unless a later chain strictly beats it.
  int pick = 0;
  AnnealResult result;
  for (int c = 0; c < num_chains; ++c) {
    const ChainResult& a = results[static_cast<size_t>(c)];
    result.iterations += a.iterations;
    result.accepted += a.accepted;
    if (c > 0 && Beats(a.best.starved_served, a.best.energy, a.best_dist,
                       results[static_cast<size_t>(pick)])) {
      pick = c;
    }
  }
  Snapshot& found = results[static_cast<size_t>(pick)].best;

  // The walk's own verdict survives even when the guard keeps the baseline:
  // callers feed it back as the next slot's warm hint.
  result.searched_best = found.topology;
  result.searched_energy = found.energy;
  result.searched_starved = found.starved_served;
  // Marginal improvements do not justify taking circuits dark: stick with
  // the baseline unless the win clears the adoption threshold — EXCEPT when
  // the candidate rescues a starved transfer the baseline cannot serve at
  // all (the §3.2 starvation guard must be able to force a reconfiguration,
  // not just reorder transfers).
  const bool keep = found.starved_served <= base.starved_served &&
                    found.energy < base.energy * (1.0 + kMinAdoptGain) + 1e-9;
  if (!keep) OWAN_COUNT("anneal.adoptions");
  Snapshot& adopted = keep ? base : found;
  result.best_topology = std::move(adopted.topology);
  result.best_energy = adopted.energy;
  result.state = std::move(adopted.state);
  result.routing = std::move(adopted.routing);
  // Under QoT the walk's state is history-dependent: incremental SyncTo
  // steps can realize different circuits (hence different per-link
  // capacities) than a cold derivation of the same topology. Canonicalize
  // the adopted output by re-realizing from a blank plant, so the installed
  // allocation is a pure function of (plant, topology, demands) — the same
  // derivation checkpoint restore and the invariant checker reproduce.
  // Legacy capacities depend only on unit counts, so this is QoT-only.
  if (blank_optical.qot().enabled) {
    Snapshot fresh = Realize(s, result.best_topology);
    result.best_energy = fresh.energy;
    result.state = std::move(fresh.state);
    result.routing = std::move(fresh.routing);
  }
  result.circuit_changes = result.best_topology.DistanceTo(current);
  OWAN_HISTO("anneal.circuit_changes", ::owan::obs::Unit::kOps,
             result.circuit_changes);
  return result;
}

}  // namespace owan::core
