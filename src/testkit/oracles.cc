#include "testkit/oracles.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <algorithm>

#include "core/annealing.h"
#include "core/energy_evaluator.h"
#include "core/owan.h"
#include "core/provisioned_state.h"
#include "core/routing.h"
#include "fault/fault_injector.h"
#include "lp/arc_mcf.h"
#include "service/service.h"
#include "te/greedy.h"
#include "update/executor.h"
#include "util/rng.h"

namespace owan::testkit {

namespace {

std::string Describe(const FuzzCase& c) {
  std::ostringstream os;
  os << "[seed " << c.seed << ", " << c.wan.NumSites() << " sites, "
     << c.wan.NumFibers() << " fibers, " << c.transfers.size()
     << " transfers, " << c.faults.size() << " fault events]";
  return os.str();
}

// Checks that an allocation set is feasible on the graph it was computed
// for: every path connects its transfer's endpoints over existing edges,
// no edge carries more than its capacity, no transfer exceeds its cap.
std::optional<std::string> CheckAllocationFeasible(
    const net::Graph& g, const std::vector<core::TransferDemand>& demands,
    const std::vector<core::TransferAllocation>& allocations, double tol) {
  if (allocations.size() != demands.size()) {
    return "allocation count " + std::to_string(allocations.size()) +
           " != demand count " + std::to_string(demands.size());
  }
  std::vector<double> used(static_cast<size_t>(g.NumEdges()), 0.0);
  for (size_t i = 0; i < allocations.size(); ++i) {
    const core::TransferAllocation& a = allocations[i];
    for (const core::PathAllocation& pa : a.paths) {
      if (pa.rate < 0.0) {
        return "negative rate on transfer " + std::to_string(demands[i].id);
      }
      if (pa.path.src() != demands[i].src || pa.path.dst() != demands[i].dst) {
        return "path of transfer " + std::to_string(demands[i].id) +
               " does not connect its endpoints";
      }
      for (size_t h = 0; h < pa.path.edges.size(); ++h) {
        const net::EdgeId e = pa.path.edges[h];
        if (e < 0 || e >= g.NumEdges()) {
          return "transfer " + std::to_string(demands[i].id) +
                 " rides a nonexistent edge";
        }
        used[static_cast<size_t>(e)] += pa.rate;
      }
    }
    if (a.TotalRate() > demands[i].rate_cap + tol) {
      return "transfer " + std::to_string(demands[i].id) +
             " exceeds its rate cap";
    }
  }
  for (net::EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (used[static_cast<size_t>(e)] > g.edge(e).capacity + tol) {
      return "edge " + std::to_string(e) + " over capacity (" +
             std::to_string(used[static_cast<size_t>(e)]) + " > " +
             std::to_string(g.edge(e).capacity) + ")";
    }
  }
  return std::nullopt;
}

// Field-by-field equality of two executor outcomes; returns the name of
// the first differing field, nullopt when bit-identical.
std::optional<std::string> SameExecResult(const update::ExecResult& a,
                                          const update::ExecResult& b) {
  if (a.outcome != b.outcome) return "outcome";
  if (a.makespan != b.makespan) return "makespan";
  if (!(a.final_topology == b.final_topology)) return "final topology";
  if (!(a.final_routes == b.final_routes)) return "final routes";
  if (!(a.stats == b.stats)) return "stats";
  if (!(a.log == b.log)) return "intent log";
  return std::nullopt;
}

}  // namespace

std::optional<Failure> LpBoundOracle(const FuzzCase& c,
                                     const OracleOptions& options) {
  topo::Wan wan = c.wan.Build();
  const std::vector<core::TransferDemand> demands =
      DemandsFromRequests(c.transfers, options.slot_seconds);
  if (demands.empty()) return std::nullopt;

  // Degrade the plant with the first half of the fault window, so the
  // bound is also exercised on shrunken, post-failure topologies.
  optical::OpticalNetwork plant = wan.optical;
  for (const fault::FaultEvent& e : c.faults.events) {
    if (e.time > c.horizon_s * 0.5) break;
    fault::ApplyPlantEvent(e, plant);
  }
  const core::Topology start =
      fault::RecomputeTopology(wan.default_topology, plant,
                               /*repair_dark_ports=*/true);

  core::AnnealOptions ao;
  ao.max_iterations = c.anneal_iterations;
  util::Rng rng(c.seed * 2654435761ULL + 1);
  const core::AnnealResult res =
      core::ComputeNetworkState(start, plant, demands, ao, rng);
  if (!res.state.has_value()) {
    return Failure{"lp", "annealing returned no provisioned state " +
                             Describe(c)};
  }
  const net::Graph g = res.state->CapacityGraph();
  const double achieved = res.routing.throughput;

  if (auto bad =
          CheckAllocationFeasible(g, demands, res.routing.allocations,
                                  options.tol)) {
    return Failure{"lp", "infeasible allocation: " + *bad + " " +
                             Describe(c)};
  }

  std::vector<lp::Commodity> commodities;
  commodities.reserve(demands.size());
  for (const core::TransferDemand& d : demands) {
    commodities.push_back({d.src, d.dst, d.rate_cap});
  }
  const lp::ArcMcfResult bound = lp::ArcMcfMaxThroughput(g, commodities);
  if (bound.status != lp::LpStatus::kOptimal) {
    return Failure{"lp", "arc MCF did not solve to optimality " +
                             Describe(c)};
  }
  const double slack = options.tol * (1.0 + std::abs(bound.throughput));
  if (achieved > bound.throughput + slack) {
    std::ostringstream os;
    os << "greedy throughput " << achieved << " exceeds LP max-flow bound "
       << bound.throughput << " " << Describe(c);
    return Failure{"lp", os.str()};
  }
  if (bound.throughput > options.tol && achieved <= 0.0) {
    std::ostringstream os;
    os << "LP optimum is " << bound.throughput
       << " but the greedy delivered nothing " << Describe(c);
    return Failure{"lp", os.str()};
  }
  return std::nullopt;
}

std::optional<Failure> DifferentialOracle(const FuzzCase& c,
                                          const OracleOptions& options) {
  topo::Wan wan = c.wan.Build();
  const std::vector<core::TransferDemand> demands =
      DemandsFromRequests(c.transfers, options.slot_seconds);
  if (demands.empty()) return std::nullopt;
  static const std::vector<size_t> kNoStarved;
  const core::RoutingOptions ropt;

  core::EnergyEvaluator eval;
  const auto& base = eval.Reset(wan.optical, wan.default_topology, demands,
                                kNoStarved, ropt);

  core::ProvisionedState cur(wan.optical);
  cur.SyncTo(wan.default_topology);
  {
    const core::RoutingOutcome ro =
        core::AssignRoutesAndRates(cur.CapacityGraph(), demands, ropt);
    if (std::abs(base.energy - ro.throughput) > options.exact_tol) {
      std::ostringstream os;
      os << "base energy " << base.energy << " != fresh " << ro.throughput
         << " " << Describe(c);
      return Failure{"differential", os.str()};
    }
  }

  core::Topology cur_topo = wan.default_topology;
  util::Rng rng(c.seed ^ 0xd1ffe7e7ULL);
  for (int step = 0; step < options.walk_steps; ++step) {
    const std::optional<core::Topology> nb =
        core::ComputeNeighbor(cur_topo, rng);
    if (!nb.has_value()) break;  // too few links to move

    const auto& ev = eval.Apply(*nb);
    core::ProvisionedState fresh = cur;
    const int fresh_failed = fresh.SyncTo(*nb);
    const core::RoutingOutcome ro =
        core::AssignRoutesAndRates(fresh.CapacityGraph(), demands, ropt);

    if (std::abs(ev.energy - ro.throughput) > options.exact_tol) {
      std::ostringstream os;
      os << "step " << step << ": incremental energy " << ev.energy
         << " != brute-force " << ro.throughput
         << (ev.memo_hit ? " (memo hit)" : "") << " " << Describe(c);
      return Failure{"differential", os.str()};
    }
    if (ev.failed_units != fresh_failed) {
      std::ostringstream os;
      os << "step " << step << ": failed units " << ev.failed_units
         << " != brute-force " << fresh_failed << " " << Describe(c);
      return Failure{"differential", os.str()};
    }
    if (!(eval.state().realized() == fresh.realized())) {
      return Failure{"differential",
                     "step " + std::to_string(step) +
                         ": realized topology diverged from brute-force " +
                         Describe(c)};
    }

    if (rng.Chance(0.5)) {
      eval.Accept();
      cur = std::move(fresh);
      cur_topo = *nb;
    } else {
      eval.Reject();
      if (!(eval.state().realized() == cur.realized())) {
        return Failure{"differential",
                       "step " + std::to_string(step) +
                           ": rollback did not restore the prior state " +
                           Describe(c)};
      }
    }
    if (step % 8 == 7) {
      std::string err;
      if (!eval.state().optical().CheckInvariants(&err)) {
        return Failure{"differential",
                       "step " + std::to_string(step) +
                           ": optical invariants violated: " + err + " " +
                           Describe(c)};
      }
    }
  }
  return std::nullopt;
}

std::optional<Failure> InvariantOracle(const FuzzCase& c,
                                       const OracleOptions& options) {
  if (c.transfers.empty()) return std::nullopt;
  topo::Wan wan = c.wan.Build();

  core::OwanOptions oo;
  oo.seed = c.seed;
  oo.slot_seeded = true;  // failover-stateless: required for replayability
  oo.anneal.max_iterations = c.anneal_iterations;

  sim::SimOptions so;
  so.slot_seconds = options.slot_seconds;
  so.faults = c.faults;
  so.max_time_s = c.horizon_s + 12.0 * 3600.0;

  core::OwanTe te(oo);
  const sim::SimResult a = sim::RunSimulation(wan, c.transfers, te, so);
  if (!a.invariant_violations.empty()) {
    return Failure{"invariant",
                   std::to_string(a.invariant_violations.size()) +
                       " violation(s), first: " +
                       a.invariant_violations.front() + " " + Describe(c)};
  }
  for (const sim::TransferRecord& t : a.transfers) {
    if (t.delivered > t.request.size + options.tol) {
      return Failure{"invariant",
                     "transfer " + std::to_string(t.request.id) +
                         " delivered more than its size " + Describe(c)};
    }
  }
  if (options.check_reproducibility) {
    core::OwanTe te2(oo);
    const sim::SimResult b = sim::RunSimulation(wan, c.transfers, te2, so);
    std::string why;
    if (!SameSimResult(a, b, &why)) {
      return Failure{"invariant",
                     "run not bit-reproducible: " + why + " " + Describe(c)};
    }
  }
  return std::nullopt;
}

std::optional<Failure> UpdateExecOracle(const FuzzCase& c,
                                        const OracleOptions& options) {
  topo::Wan wan = c.wan.Build();
  const std::vector<core::TransferDemand> demands =
      DemandsFromRequests(c.transfers, options.slot_seconds);
  if (demands.empty()) return std::nullopt;

  // One slot reconfiguration, derived like the LP oracle: degrade the
  // plant with the first half of the fault window, route the demands on
  // the surviving topology (the routes "in force" before the update),
  // then anneal a target for the same demands.
  optical::OpticalNetwork plant = wan.optical;
  for (const fault::FaultEvent& e : c.faults.events) {
    if (e.time > c.horizon_s * 0.5) break;
    fault::ApplyPlantEvent(e, plant);
  }
  const core::Topology from =
      fault::RecomputeTopology(wan.default_topology, plant,
                               /*repair_dark_ports=*/true);

  const core::RoutingOptions ropt;
  core::ProvisionedState pre(plant);
  pre.SyncTo(from);
  const core::RoutingOutcome pre_ro =
      core::AssignRoutesAndRates(pre.CapacityGraph(), demands, ropt);

  core::AnnealOptions ao;
  ao.max_iterations = c.anneal_iterations;
  util::Rng rng(c.seed * 2654435761ULL + 17);
  const core::AnnealResult res =
      core::ComputeNetworkState(from, plant, demands, ao, rng);
  if (!res.state.has_value()) {
    return Failure{"update",
                   "annealing returned no provisioned state " + Describe(c)};
  }
  const core::Topology to = res.state->realized();

  update::ExecutorInput base;
  base.from = from;
  base.plan =
      update::BuildUpdatePlan(from, to, pre_ro.allocations,
                              res.routing.allocations);
  base.old_routes = pre_ro.allocations;
  base.new_routes = res.routing.allocations;
  base.spare_ports.assign(static_cast<size_t>(plant.NumSites()), 0);
  for (net::NodeId v = 0; v < plant.NumSites(); ++v) {
    base.spare_ports[static_cast<size_t>(v)] =
        std::max(0, plant.UsablePorts(v) - from.PortsUsed(v));
  }
  update::ExecutorOptions eopts;
  eopts.theta = wan.optical.wavelength_capacity();

  // (1) Nominal actuation lands the plan exactly as scheduled.
  {
    const update::ExecResult r =
        update::UpdateExecutor::ExecutePlan(base, eopts);
    if (r.outcome != update::ExecOutcome::kConverged) {
      return Failure{"update", "nominal execution aborted " + Describe(c)};
    }
    if (!(r.final_topology == to)) {
      return Failure{"update",
                     "nominal run missed the target topology " + Describe(c)};
    }
    if (!r.invariant_violations.empty()) {
      return Failure{"update", "nominal stage violation: " +
                                   r.invariant_violations.front() + " " +
                                   Describe(c)};
    }
    if (r.stats.retries != 0 || r.stats.failed_ops != 0) {
      return Failure{"update",
                     "nominal run retried or failed ops " + Describe(c)};
    }
  }

  // (2) Seeded actuation faults: converge or roll back cleanly, with
  // every intermediate stage invariant-clean, reproducibly.
  update::ExecutorOptions fopts = eopts;
  fopts.actuation.seed = c.seed ^ 0xac7a710ULL;
  fopts.actuation.circuit_failure_prob = 0.15;
  fopts.actuation.route_failure_prob = 0.05;
  fopts.actuation.latency_cv = 0.3;
  fopts.actuation.straggler_prob = 0.05;
  const update::ExecResult f1 =
      update::UpdateExecutor::ExecutePlan(base, fopts);
  if (!f1.invariant_violations.empty()) {
    return Failure{"update", "stage violation under faults: " +
                                 f1.invariant_violations.front() + " " +
                                 Describe(c)};
  }
  if (f1.outcome == update::ExecOutcome::kAborted) {
    if (!(f1.final_topology == base.from)) {
      return Failure{"update",
                     "abort did not restore the pre-update topology " +
                         Describe(c)};
    }
    if (!(f1.final_routes == base.old_routes)) {
      return Failure{"update",
                     "abort did not restore the pre-update routes " +
                         Describe(c)};
    }
  }
  const update::ExecResult f2 =
      update::UpdateExecutor::ExecutePlan(base, fopts);
  if (auto d = SameExecResult(f1, f2)) {
    return Failure{"update",
                   "faulty rerun not bit-identical: " + *d + " " +
                       Describe(c)};
  }

  // (3) Crash mid-update: persist the first half of the intent log the
  // way the controller checkpoint does (Serialize -> Parse), replay it
  // into a fresh executor, and finish. A WAL writer that loses records
  // (--inject-bug wal) breaks the round-trip and diverges here.
  update::IntentLog prefix;
  prefix.records.assign(f1.log.records.begin(),
                        f1.log.records.begin() +
                            static_cast<long>(f1.log.records.size() / 2));
  const update::IntentLog persisted =
      update::IntentLog::Parse(prefix.Serialize());
  update::UpdateExecutor resumed(base, fopts);
  resumed.Replay(persisted);
  update::ExecResult f3 = resumed.Finish();
  if (auto d = SameExecResult(f1, f3)) {
    return Failure{"update",
                   "crash-resume diverged from the uninterrupted run: " +
                       *d + " " + Describe(c)};
  }
  return std::nullopt;
}

std::optional<Failure> AdmissionOracle(const FuzzCase& c,
                                       const OracleOptions& options) {
  const topo::Wan wan = c.wan.Build();
  auto fail = [&](const std::string& msg) {
    return Failure{"admission", msg + " " + Describe(c)};
  };

  // The case's transfers become the request stream; a seeded pass assigns
  // most of them deadlines so the admission path (window math, pending
  // queue, bookings) actually exercises. Ids are renumbered after the
  // arrival sort so shrunk cases can never alias two records.
  std::vector<core::Request> reqs = c.transfers;
  std::stable_sort(reqs.begin(), reqs.end(),
                   [](const core::Request& a, const core::Request& b) {
                     return a.arrival < b.arrival;
                   });
  util::Rng rng(c.seed * 0x9e3779b97f4a7c15ULL + 0xada);
  for (size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].id = static_cast<int>(i);
    if (rng.Chance(0.7)) {
      reqs[i].deadline =
          reqs[i].arrival +
          options.slot_seconds * static_cast<double>(rng.UniformInt(1, 8));
    }
  }

  service::ServiceOptions sopt;
  sopt.slot_seconds = options.slot_seconds;
  sopt.mode = service::ServiceMode::kOnline;
  const auto build = [&] {
    service::ControllerService svc(
        &wan, std::make_unique<te::GreedyOwanTe>(), sopt);
    for (const core::Request& r : reqs) svc.Submit(r);
    return svc;
  };
  const uint64_t half = (reqs.size() + 1) / 2;

  // (1) Full run; the reservation ledger must audit clean both mid-run and
  // after the queue drains, and every request must reach a final verdict.
  service::ControllerService a = build();
  a.RunUntilIngested(half);
  if (auto v = a.admission().Audit(); !v.empty()) {
    return fail("mid-run ledger drift: " + v.front());
  }
  a.Run();
  if (auto v = a.admission().Audit(); !v.empty()) {
    return fail("final ledger drift: " + v.front());
  }
  if (a.stats().requests != reqs.size()) {
    return fail("ingested " + std::to_string(a.stats().requests) + " of " +
                std::to_string(reqs.size()) + " requests");
  }
  if (a.stats().admitted + a.stats().rejected != reqs.size() ||
      a.pending_requests() != 0) {
    return fail("requests left undecided after the stream drained");
  }

  // (2) Plan-level deadline feasibility: admission must never book a
  // deadline transfer whose window holds no whole slot.
  const sim::SimResult result = a.ToSimResult();
  for (const sim::TransferRecord& t : result.transfers) {
    if (!t.request.HasDeadline() || !t.admitted) continue;
    const int64_t first = static_cast<int64_t>(
        std::ceil((t.request.arrival - 1e-9) / options.slot_seconds));
    const int64_t last =
        static_cast<int64_t>(
            std::floor(t.request.deadline / options.slot_seconds)) -
        1;
    if (last < first) {
      return fail("transfer " + std::to_string(t.request.id) +
                  " admitted into an empty deadline window");
    }
  }

  // (3) Bit-reproducible decisions: a second run over the same stream must
  // match fingerprint and the full per-transfer outcome view.
  service::ControllerService b = build();
  b.Run();
  std::string why;
  if (a.Fingerprint() != b.Fingerprint()) {
    return fail("same-input rerun changed the decision fingerprint");
  }
  if (!SameSimResult(result, b.ToSimResult(), &why)) {
    return fail("same-input rerun diverged: " + why);
  }

  // (4) Crash/resume: snapshot at half the stream, restore from the
  // checkpoint text alone, and finish — bit-identical to the uninterrupted
  // run (this is what makes the v4 epoch snapshots trustworthy).
  service::ControllerService crashed = build();
  crashed.RunUntilIngested(half);
  const std::string snapshot = crashed.Checkpoint();
  service::ControllerService resumed = service::ControllerService::Restore(
      &wan, std::make_unique<te::GreedyOwanTe>(), snapshot, sopt);
  if (resumed.Fingerprint() != crashed.Fingerprint()) {
    return fail("restore changed the live fingerprint");
  }
  resumed.Run();
  if (resumed.Fingerprint() != a.Fingerprint()) {
    return fail("crash/restore run changed the decision fingerprint");
  }
  if (!SameSimResult(result, resumed.ToSimResult(), &why)) {
    return fail("crash/restore run diverged: " + why);
  }
  return std::nullopt;
}

namespace {

// ---- QoT oracle: independent reference physics ----
// A second implementation of the documented span model (docs/DESIGN.md,
// optical/qot.h): full spans of span_km plus a remainder, per-span OSNR
// 58 + tx - loss*len - extra - NF, linear inverse-OSNR accumulation,
// margin-adjusted SNR. Deliberately NOT calling optical::FiberInverseOsnr —
// the whole point is to catch a production implementation that drifts from
// the spec (e.g. an injected skip of one span's noise).
double RefSpanOsnrDb(double span_len_km, double extra_db,
                     const optical::QotOptions& q) {
  return 58.0 + q.tx_power_dbm - q.fiber_loss_db_per_km * span_len_km -
         extra_db - q.amp_noise_figure_db;
}

double RefPathSnrDb(const optical::OpticalNetwork& plant,
                    const std::vector<net::EdgeId>& fibers,
                    const optical::QotOptions& q) {
  double inv = 0.0;
  for (net::EdgeId f : fibers) {
    const double len = plant.fiber(f).length_km;
    const int full = static_cast<int>(len / q.span_km);
    const double rem = len - full * q.span_km;
    const int spans = full + (rem > 1e-9 ? 1 : 0);
    const double extra =
        spans > 0 ? plant.FiberDegradationDb(f) / spans : 0.0;
    for (int i = 0; i < full; ++i) {
      inv += std::pow(10.0, -RefSpanOsnrDb(q.span_km, extra, q) / 10.0);
    }
    if (rem > 1e-9) {
      inv += std::pow(10.0, -RefSpanOsnrDb(rem, extra, q) / 10.0);
    }
  }
  if (inv <= 0.0) return std::numeric_limits<double>::infinity();
  return -10.0 * std::log10(inv) - q.snr_margin_db;
}

// QoT parameters as a pure function of the case seed: the case format (and
// with it case_io and the shrinker) stays untouched, yet fuzzing still
// sweeps span lengths, margins, and loss coefficients.
optical::QotOptions DeriveQot(uint64_t seed) {
  optical::QotOptions q;
  q.enabled = true;
  q.span_km = 60.0 + 20.0 * static_cast<double>(seed % 3);
  q.snr_margin_db = 1.0 + 0.5 * static_cast<double>((seed / 3) % 3);
  q.fiber_loss_db_per_km =
      0.22 + 0.015 * static_cast<double>((seed / 9) % 3);
  return q;
}

}  // namespace

std::optional<Failure> QotOracle(const FuzzCase& c,
                                 const OracleOptions& options) {
  topo::Wan wan = c.wan.Build();
  auto fail = [&](const std::string& m) {
    return Failure{"qot", m + " " + Describe(c)};
  };
  const optical::QotOptions q = DeriveQot(c.seed);
  const std::vector<core::TransferDemand> demands =
      DemandsFromRequests(c.transfers, options.slot_seconds);

  // (1) Legacy equivalence: a plant tagged with *disabled* QoT options must
  // be byte-invisible — same annealed energy, topology, and circuits as a
  // plant that never saw them.
  if (!demands.empty()) {
    optical::OpticalNetwork tagged = wan.optical;
    optical::QotOptions off = q;
    off.enabled = false;
    tagged.set_qot(off);
    core::AnnealOptions ao;
    ao.max_iterations = c.anneal_iterations;
    util::Rng rng_plain(c.seed * 2654435761ULL + 7);
    util::Rng rng_tagged(c.seed * 2654435761ULL + 7);
    const core::AnnealResult plain = core::ComputeNetworkState(
        wan.default_topology, wan.optical, demands, ao, rng_plain);
    const core::AnnealResult with_tag = core::ComputeNetworkState(
        wan.default_topology, tagged, demands, ao, rng_tagged);
    if (plain.best_energy != with_tag.best_energy) {
      return fail("disabled QoT changed annealed energy");
    }
    if (!(plain.best_topology == with_tag.best_topology)) {
      return fail("disabled QoT changed the adopted topology");
    }
    if (plain.state.has_value() != with_tag.state.has_value()) {
      return fail("disabled QoT changed state presence");
    }
    if (plain.state.has_value()) {
      const auto& ca = plain.state->optical().circuits();
      const auto& cb = with_tag.state->optical().circuits();
      if (ca.size() != cb.size()) {
        return fail("disabled QoT changed the circuit count");
      }
      auto ib = cb.begin();
      for (auto ia = ca.begin(); ia != ca.end(); ++ia, ++ib) {
        if (ia->first != ib->first ||
            ToString(ia->second) != ToString(ib->second) ||
            ia->second.capacity_gbps != ib->second.capacity_gbps) {
          return fail("disabled QoT changed circuit " +
                      std::to_string(ia->first));
        }
      }
    }
  }

  // Build the QoT-enabled plant, degrade it with the case's fault prefix
  // (mirroring the LP oracle), and realize the default topology on it.
  optical::OpticalNetwork qplant = wan.optical;
  qplant.set_qot(q);
  for (const fault::FaultEvent& e : c.faults.events) {
    if (e.time > c.horizon_s * 0.5) break;
    fault::ApplyPlantEvent(e, qplant);
  }
  core::ProvisionedState st(qplant);
  st.SyncTo(fault::RecomputeTopology(wan.default_topology, qplant,
                                     /*repair_dark_ports=*/true));
  const optical::OpticalNetwork& plant = st.optical();
  std::string err;
  if (!plant.CheckInvariants(&err)) {
    return fail("QoT plant invariants broken after realization: " + err);
  }
  const double theta = plant.wavelength_capacity();

  for (const auto& [id, circuit] : plant.circuits()) {
    // (2) Reference physics: stored per-segment SNR must match the
    // independent span-model reimplementation.
    double min_tier = theta;
    for (const optical::Segment& s : circuit.segments) {
      const double ref = RefPathSnrDb(plant, s.fibers, q);
      const bool both_inf = std::isinf(ref) && std::isinf(s.snr_db);
      if (!both_inf &&
          !(std::abs(ref - s.snr_db) <=
            1e-9 * std::max(1.0, std::abs(ref)))) {
        std::ostringstream os;
        os << "segment SNR of circuit " << id
           << " disagrees with reference physics (stored " << s.snr_db
           << " dB, reference " << ref << " dB)";
        return fail(os.str());
      }
      min_tier =
          std::min(min_tier, optical::CapacityForSnrGbps(s.snr_db, q));
    }
    // (3) Tier consistency: capacity is the theta-capped minimum tier over
    // the segments, and a live circuit never carries zero.
    if (circuit.capacity_gbps != min_tier) {
      return fail("capacity of circuit " + std::to_string(id) +
                  " is out of step with the modulation table");
    }
    if (circuit.capacity_gbps <= 0.0) {
      return fail("zero-capacity circuit " + std::to_string(id) +
                  " left live");
    }
    // (4) Span monotonicity: SNR along every route prefix never rises as
    // fibers are appended.
    for (const optical::Segment& s : circuit.segments) {
      std::vector<net::EdgeId> prefix;
      double prev = std::numeric_limits<double>::infinity();
      for (net::EdgeId f : s.fibers) {
        prefix.push_back(f);
        const double snr = plant.PathSnrDb(prefix);
        if (snr > prev) {
          return fail("appending fiber " + std::to_string(f) +
                      " raised SNR on circuit " + std::to_string(id));
        }
        prev = snr;
      }
    }
    // (5) Regen monotonicity: grading the concatenated route as one
    // segment can never beat the regenerated circuit (each regen resets
    // the accumulated noise).
    if (circuit.segments.size() > 1) {
      std::vector<net::EdgeId> all;
      for (const optical::Segment& s : circuit.segments) {
        all.insert(all.end(), s.fibers.begin(), s.fibers.end());
      }
      const double unsplit = std::min(
          theta, optical::CapacityForSnrGbps(plant.PathSnrDb(all), q));
      if (unsplit > circuit.capacity_gbps) {
        return fail("regeneration lowered capacity on circuit " +
                    std::to_string(id));
      }
    }
  }

  // (6) Degradation monotonicity: extra attenuation on a crossed fiber
  // never raises any surviving circuit's capacity, torn-down victims are
  // exactly the zero-tier circuits, and the invariants stay clean.
  if (!plant.circuits().empty()) {
    const net::EdgeId victim_fiber =
        plant.circuits().begin()->second.segments.front().fibers.front();
    const double db = 3.0 + static_cast<double>(c.seed % 5);
    std::map<optical::CircuitId, double> before;
    for (const auto& [id, circuit] : plant.circuits()) {
      before.emplace(id, circuit.capacity_gbps);
    }
    optical::OpticalNetwork degraded = plant;
    const std::vector<optical::CircuitId> victims =
        degraded.DegradeFiber(victim_fiber, db);
    if (!degraded.CheckInvariants(&err)) {
      return fail("plant invariants broken after span degradation: " + err);
    }
    for (const auto& [id, circuit] : degraded.circuits()) {
      if (circuit.capacity_gbps > before.at(id)) {
        return fail("span degradation raised capacity of circuit " +
                    std::to_string(id));
      }
    }
    for (optical::CircuitId v : victims) {
      if (degraded.circuits().count(v)) {
        return fail("torn-down circuit " + std::to_string(v) +
                    " still live after degradation");
      }
      if (!before.count(v)) {
        return fail("degradation reported an unknown victim circuit " +
                    std::to_string(v));
      }
    }
  }

  return std::nullopt;
}

Property MakeOracleProperty(bool lp, bool differential, bool invariant,
                            const OracleOptions& options, bool update_exec,
                            bool admission, bool qot) {
  return [=](const FuzzCase& c) -> std::optional<Failure> {
    if (differential) {
      if (auto f = DifferentialOracle(c, options)) return f;
    }
    if (lp) {
      if (auto f = LpBoundOracle(c, options)) return f;
    }
    if (invariant) {
      if (auto f = InvariantOracle(c, options)) return f;
    }
    if (qot) {
      if (auto f = QotOracle(c, options)) return f;
    }
    if (update_exec) {
      if (auto f = UpdateExecOracle(c, options)) return f;
    }
    if (admission) {
      if (auto f = AdmissionOracle(c, options)) return f;
    }
    return std::nullopt;
  };
}

Property MakeAdmissionProperty(const OracleOptions& options) {
  return MakeOracleProperty(false, false, false, options, false, true);
}

Property MakeQotProperty(const OracleOptions& options) {
  return [=](const FuzzCase& c) -> std::optional<Failure> {
    return QotOracle(c, options);
  };
}

bool SameSimResult(const sim::SimResult& a, const sim::SimResult& b,
                   std::string* why) {
  if (a.transfers.size() != b.transfers.size()) {
    *why = "transfer count differs";
    return false;
  }
  for (size_t i = 0; i < a.transfers.size(); ++i) {
    const sim::TransferRecord& x = a.transfers[i];
    const sim::TransferRecord& y = b.transfers[i];
    if (x.completed != y.completed || x.completed_at != y.completed_at ||
        x.delivered != y.delivered || x.stalled_s != y.stalled_s) {
      *why = "transfer " + std::to_string(x.request.id) + " outcome differs";
      return false;
    }
  }
  if (a.slot_throughput != b.slot_throughput) {
    *why = "slot throughput series differs";
    return false;
  }
  if (a.recovery_seconds != b.recovery_seconds ||
      a.fault_events != b.fault_events ||
      a.gigabits_lost_to_faults != b.gigabits_lost_to_faults) {
    *why = "availability metrics differ";
    return false;
  }
  if (a.updates_executed != b.updates_executed ||
      a.update_aborts != b.update_aborts ||
      a.update_retries != b.update_retries ||
      a.update_forced_ops != b.update_forced_ops ||
      a.update_exec_seconds != b.update_exec_seconds) {
    *why = "update execution metrics differ";
    return false;
  }
  return true;
}

}  // namespace owan::testkit
