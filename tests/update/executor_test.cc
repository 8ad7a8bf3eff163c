#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "fault/invariant_checker.h"
#include "update/executor.h"
#include "update/scheduler.h"
#include "update/update_plan.h"

namespace owan::update {
namespace {

core::Topology SquareA() {
  core::Topology t(4);
  t.AddUnits(0, 1, 1);
  t.AddUnits(0, 2, 1);
  t.AddUnits(1, 3, 1);
  t.AddUnits(2, 3, 1);
  return t;
}

core::Topology SquareB() {
  core::Topology t(4);
  t.AddUnits(0, 1, 2);
  t.AddUnits(2, 3, 2);
  return t;
}

core::TransferAllocation Alloc(int id, std::vector<net::NodeId> nodes,
                               double rate) {
  core::TransferAllocation a;
  a.id = id;
  core::PathAllocation pa;
  pa.path.nodes = std::move(nodes);
  pa.rate = rate;
  a.paths.push_back(pa);
  return a;
}

// The motivating reconfiguration with live traffic on both sides.
ExecutorInput SquareInput() {
  ExecutorInput in;
  in.from = SquareA();
  in.old_routes = {Alloc(0, {0, 2, 3}, 5.0), Alloc(1, {0, 1, 3}, 5.0)};
  in.new_routes = {Alloc(0, {2, 3}, 8.0), Alloc(1, {0, 1}, 8.0)};
  in.plan = BuildUpdatePlan(in.from, SquareB(), in.old_routes, in.new_routes);
  return in;
}

TEST(UpdateExecutorTest, EmptyPlanCommitsImmediately) {
  ExecutorInput in;
  in.from = SquareA();
  ExecResult res = UpdateExecutor::ExecutePlan(in, {});
  EXPECT_EQ(res.outcome, ExecOutcome::kConverged);
  EXPECT_EQ(res.makespan, 0.0);
  ASSERT_EQ(res.log.records.size(), 1u);
  EXPECT_EQ(res.log.records[0].kind, IntentKind::kCommit);
}

// With the actuation model disabled the executor must reproduce
// ScheduleConsistent bit-for-bit: same makespan, same op timeline, same
// forced ops. The executor *is* the scheduler once the plant is nominal.
TEST(UpdateExecutorTest, NominalParityWithScheduler) {
  ExecutorInput in = SquareInput();
  Schedule want = ScheduleConsistent(in.plan, /*wave_size=*/4);

  ExecutorOptions opts;
  ExecResult res = UpdateExecutor::ExecutePlan(in, opts);

  EXPECT_EQ(res.outcome, ExecOutcome::kConverged);
  EXPECT_EQ(res.makespan, want.makespan);
  ASSERT_EQ(res.schedule.items.size(), want.items.size());
  for (const ScheduledOp& w : want.items) {
    const ScheduledOp* got = res.schedule.Find(w.op_id);
    ASSERT_NE(got, nullptr) << "op " << w.op_id << " never ran";
    EXPECT_EQ(got->start, w.start) << "op " << w.op_id;
    EXPECT_EQ(got->end, w.end) << "op " << w.op_id;
    EXPECT_EQ(got->forced, w.forced) << "op " << w.op_id;
  }
  EXPECT_EQ(res.stats.retries, 0);
  EXPECT_EQ(res.stats.failed_ops, 0);
  EXPECT_EQ(res.stats.alternate_circuits, 0);
  EXPECT_TRUE(res.invariant_violations.empty())
      << res.invariant_violations[0];
  EXPECT_TRUE(res.final_topology == SquareB());
}

TEST(UpdateExecutorTest, NominalFinalRoutesCarryNominalRates) {
  ExecutorInput in = SquareInput();
  ExecResult res = UpdateExecutor::ExecutePlan(in, {});
  ASSERT_EQ(res.final_routes.size(), 2u);
  EXPECT_DOUBLE_EQ(res.final_routes[0].TotalRate(), 8.0);
  EXPECT_DOUBLE_EQ(res.final_routes[1].TotalRate(), 8.0);
}

TEST(UpdateExecutorTest, SameSeedBitReproducible) {
  ExecutorOptions opts;
  opts.actuation.seed = 7;
  opts.actuation.circuit_failure_prob = 0.3;
  opts.actuation.route_failure_prob = 0.1;
  opts.actuation.latency_cv = 0.5;
  opts.actuation.straggler_prob = 0.2;

  ExecResult a = UpdateExecutor::ExecutePlan(SquareInput(), opts);
  ExecResult b = UpdateExecutor::ExecutePlan(SquareInput(), opts);
  EXPECT_TRUE(a.log == b.log);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_TRUE(a.stats == b.stats);
  EXPECT_TRUE(a.final_topology == b.final_topology);
  EXPECT_TRUE(a.final_routes == b.final_routes);
}

TEST(UpdateExecutorTest, LatencyJitterRetriesViaTimeout) {
  ExecutorOptions opts;
  opts.actuation.seed = 3;
  opts.actuation.straggler_prob = 0.5;  // 8x latency blows the 4x timeout
  ExecResult res = UpdateExecutor::ExecutePlan(SquareInput(), opts);
  EXPECT_GT(res.stats.timeouts, 0);
  EXPECT_GT(res.stats.retries, 0);
  EXPECT_EQ(res.stats.retries, res.stats.timeouts);  // only stragglers fail
  // A straggler times out at 4x nominal, backs off, retries: strictly
  // slower than the nominal plan but still convergent.
  EXPECT_EQ(res.outcome, ExecOutcome::kConverged);
  EXPECT_GT(res.makespan, ScheduleConsistent(SquareInput().plan).makespan);
  EXPECT_TRUE(res.invariant_violations.empty())
      << res.invariant_violations[0];
}

// ---- spare-port budget: stall breaking may only force a circuit
// bring-up onto ports that physically exist. ----

// One stalled AddCircuit, no teardown to free ports. With a zero spare
// budget the op is hopeless and must be cancelled (plan repair), not
// forced onto ports the plant does not have.
TEST(UpdateExecutorTest, HopelessAddCircuitIsCancelledNotForced) {
  ExecutorInput in;
  in.from = core::Topology(2);
  in.from.AddUnits(0, 1, 1);
  core::Topology to(2);
  to.AddUnits(0, 1, 2);
  in.plan = BuildUpdatePlan(in.from, to, {}, {});
  in.spare_ports = {0, 0};
  ExecResult res = UpdateExecutor::ExecutePlan(in, {});
  EXPECT_EQ(res.outcome, ExecOutcome::kConverged);
  EXPECT_EQ(res.stats.cancelled_ops, 1);
  EXPECT_EQ(res.stats.forced_ops, 0);
  EXPECT_TRUE(res.final_topology == in.from);
  EXPECT_TRUE(res.invariant_violations.empty())
      << res.invariant_violations[0];
}

// The same stall with one physical spare per endpoint: the forced
// bring-up borrows the spares and the update lands.
TEST(UpdateExecutorTest, SparePortBudgetAllowsTheForcedBringUp) {
  ExecutorInput in;
  in.from = core::Topology(2);
  in.from.AddUnits(0, 1, 1);
  core::Topology to(2);
  to.AddUnits(0, 1, 2);
  in.plan = BuildUpdatePlan(in.from, to, {}, {});
  in.spare_ports = {1, 1};
  ExecResult res = UpdateExecutor::ExecutePlan(in, {});
  EXPECT_EQ(res.outcome, ExecOutcome::kConverged);
  EXPECT_EQ(res.stats.forced_ops, 1);
  EXPECT_EQ(res.stats.cancelled_ops, 0);
  EXPECT_TRUE(res.final_topology == to);
}

// No spare_ports vector = legacy planner semantics: stalls are always
// broken by forcing, which keeps nominal parity with ScheduleConsistent.
TEST(UpdateExecutorTest, EmptySparePortsKeepsPlannerSemantics) {
  ExecutorInput in;
  in.from = core::Topology(2);
  in.from.AddUnits(0, 1, 1);
  core::Topology to(2);
  to.AddUnits(0, 1, 2);
  in.plan = BuildUpdatePlan(in.from, to, {}, {});
  ExecResult res = UpdateExecutor::ExecutePlan(in, {});
  EXPECT_EQ(res.outcome, ExecOutcome::kConverged);
  EXPECT_EQ(res.stats.forced_ops, 1);
  EXPECT_TRUE(res.final_topology == to);
}

// Under random actuation failures — including teardowns that permanently
// fail and re-light their circuit — the realized end state must never
// consume more ports than the plant has (from-usage plus spares). A run
// whose locked-in bring-ups exceed that budget has to safe-abort instead.
TEST(UpdateExecutorTest, PortBudgetHeldUnderRandomFailures) {
  int aborted = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    ExecutorInput in = SquareInput();
    in.spare_ports = {1, 1, 1, 1};  // SquareA uses 2 of 3 ports per site
    ExecutorOptions opts;
    opts.actuation.seed = seed;
    opts.actuation.circuit_failure_prob = 0.35;
    opts.actuation.route_failure_prob = 0.1;
    ExecResult res = UpdateExecutor::ExecutePlan(in, opts);
    EXPECT_TRUE(res.invariant_violations.empty())
        << "seed " << seed << ": " << res.invariant_violations[0];
    for (net::NodeId s = 0; s < 4; ++s) {
      EXPECT_LE(res.final_topology.PortsUsed(s), 3)
          << "site " << s << " over port budget at seed " << seed;
    }
    if (res.outcome == ExecOutcome::kAborted) {
      ++aborted;
      EXPECT_TRUE(res.final_topology == in.from) << "seed " << seed;
    }
  }
  // The sweep is only meaningful if both terminal paths actually ran.
  EXPECT_GT(aborted, 0);
  EXPECT_LT(aborted, 40);
}

// Every circuit actuation fails permanently: bring-ups fail (and their
// alternates fail), teardowns fail and re-light. The draining removes
// succeed, so transfer 0 would be stranded with zero capacity -> the run
// must safe-abort and restore the exact pre-update plant.
TEST(UpdateExecutorTest, AbortRestoresPreUpdatePlant) {
  ExecutorInput in;
  in.from = core::Topology(4);
  in.from.AddUnits(0, 1, 1);
  core::Topology to(4);
  to.AddUnits(2, 3, 1);
  in.old_routes = {Alloc(0, {0, 1}, 5.0)};
  in.new_routes = {Alloc(0, {2, 3}, 5.0)};
  in.plan = BuildUpdatePlan(in.from, to, in.old_routes, in.new_routes);

  ExecutorOptions opts;
  opts.actuation.seed = 11;
  opts.actuation.circuit_failure_prob = 1.0;
  ExecResult res = UpdateExecutor::ExecutePlan(in, opts);

  EXPECT_EQ(res.outcome, ExecOutcome::kAborted);
  EXPECT_TRUE(res.final_topology == in.from);
  EXPECT_TRUE(res.final_routes == in.old_routes);
  EXPECT_GT(res.stats.failed_ops, 0);
  EXPECT_GT(res.stats.rollback_ops, 0);
  EXPECT_TRUE(res.invariant_violations.empty())
      << res.invariant_violations[0];
  EXPECT_EQ(res.log.records.back().kind, IntentKind::kAbortDone);
}

TEST(UpdateExecutorTest, MaxFailedOpsCapTriggersAbort) {
  ExecutorOptions opts;
  opts.actuation.seed = 5;
  opts.actuation.circuit_failure_prob = 1.0;
  opts.max_failed_ops = 0;  // first permanent failure aborts
  ExecutorInput in = SquareInput();
  ExecResult res = UpdateExecutor::ExecutePlan(in, opts);
  EXPECT_EQ(res.outcome, ExecOutcome::kAborted);
  EXPECT_TRUE(res.final_topology == in.from);
  EXPECT_TRUE(res.final_routes == in.old_routes);
}

TEST(UpdateExecutorTest, RequestAbortRollsBack) {
  ExecutorInput in = SquareInput();
  UpdateExecutor ex(in, {});
  // Let some ops complete, then pull the plug.
  for (int i = 0; i < 8 && !ex.done(); ++i) ex.Step();
  ex.RequestAbort();
  ExecResult res = ex.Finish();
  EXPECT_EQ(res.outcome, ExecOutcome::kAborted);
  EXPECT_TRUE(res.final_topology == in.from);
  EXPECT_TRUE(res.final_routes == in.old_routes);
  EXPECT_TRUE(res.invariant_violations.empty())
      << res.invariant_violations[0];
}

// A failed bring-up falls back to exactly one alternate circuit attempt
// with a fresh op id (fresh actuation substream).
TEST(UpdateExecutorTest, FailedBringUpSpawnsOneAlternate) {
  bool saw_alternate_converge = false;
  for (uint64_t seed = 0; seed < 40 && !saw_alternate_converge; ++seed) {
    ExecutorOptions opts;
    opts.actuation.seed = seed;
    opts.actuation.circuit_failure_prob = 0.4;
    ExecResult res = UpdateExecutor::ExecutePlan(SquareInput(), opts);
    EXPECT_LE(res.stats.alternate_circuits, 4);  // one per original bring-up
    if (res.stats.alternate_circuits > 0 &&
        res.outcome == ExecOutcome::kConverged) {
      saw_alternate_converge = true;
    }
  }
  EXPECT_TRUE(saw_alternate_converge)
      << "no seed in [0,40) exercised a convergent alternate circuit";
}

// Sweep seeds at a nasty failure rate: every run must keep every
// intermediate stage invariant-clean and either converge or abort back to
// exactly the pre-update plant. This is the PR's acceptance property.
TEST(UpdateExecutorTest, FaultSweepConvergesOrAbortsCleanly) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    ExecutorOptions opts;
    opts.actuation.seed = seed;
    opts.actuation.circuit_failure_prob = 0.25;
    opts.actuation.route_failure_prob = 0.10;
    opts.actuation.latency_cv = 0.5;
    opts.actuation.straggler_prob = 0.1;
    ExecutorInput in = SquareInput();
    ExecResult res = UpdateExecutor::ExecutePlan(in, opts);
    EXPECT_TRUE(res.invariant_violations.empty())
        << "seed " << seed << ": " << res.invariant_violations[0];
    if (res.outcome == ExecOutcome::kAborted) {
      EXPECT_TRUE(res.final_topology == in.from) << "seed " << seed;
      EXPECT_TRUE(res.final_routes == in.old_routes) << "seed " << seed;
    } else {
      // Converged under faults: whatever survived must be self-consistent.
      EXPECT_TRUE(fault::InvariantChecker::CheckUpdateStage(
                      res.final_topology, opts.theta, res.final_routes)
                      .empty())
          << "seed " << seed;
    }
  }
}

TEST(UpdateExecutorTest, WalReplayOfFullLogIsBitIdentical) {
  ExecutorOptions opts;
  opts.actuation.seed = 13;
  opts.actuation.circuit_failure_prob = 0.3;
  opts.actuation.route_failure_prob = 0.1;
  opts.actuation.latency_cv = 0.4;
  ExecResult live = UpdateExecutor::ExecutePlan(SquareInput(), opts);

  // Round-trip the WAL through its text form, then replay from scratch.
  IntentLog parsed = IntentLog::Parse(live.log.Serialize());
  ASSERT_TRUE(parsed == live.log);

  UpdateExecutor replayed(SquareInput(), opts);
  replayed.Replay(parsed);
  EXPECT_TRUE(replayed.done());
  ExecResult res = replayed.Finish();
  EXPECT_EQ(res.outcome, live.outcome);
  EXPECT_EQ(res.makespan, live.makespan);
  EXPECT_TRUE(res.stats == live.stats);
  EXPECT_TRUE(res.final_topology == live.final_topology);
  EXPECT_TRUE(res.final_routes == live.final_routes);
  EXPECT_TRUE(res.log == live.log);
}

// Crash anywhere: resuming from *every* log prefix must finish the run
// bit-identically to the uninterrupted execution -- same records, same
// times, same final plant.
TEST(UpdateExecutorTest, CrashResumeAtEveryCutIsBitIdentical) {
  ExecutorOptions opts;
  opts.actuation.seed = 21;
  opts.actuation.circuit_failure_prob = 0.3;
  opts.actuation.route_failure_prob = 0.1;
  opts.actuation.latency_cv = 0.5;
  opts.actuation.straggler_prob = 0.15;
  ExecResult live = UpdateExecutor::ExecutePlan(SquareInput(), opts);
  const size_t n = live.log.records.size();
  ASSERT_GT(n, 10u);

  for (size_t cut = 0; cut < n; ++cut) {
    IntentLog prefix;
    prefix.records.assign(live.log.records.begin(),
                          live.log.records.begin() + cut);
    UpdateExecutor resumed(SquareInput(), opts);
    resumed.Replay(prefix);
    ExecResult res = resumed.Finish();
    ASSERT_TRUE(res.log == live.log) << "cut at record " << cut;
    EXPECT_EQ(res.makespan, live.makespan) << "cut " << cut;
    EXPECT_TRUE(res.stats == live.stats) << "cut " << cut;
    EXPECT_TRUE(res.final_topology == live.final_topology) << "cut " << cut;
    EXPECT_TRUE(res.final_routes == live.final_routes) << "cut " << cut;
  }
}

// Same property across an aborting run: rollback must also resume cleanly.
TEST(UpdateExecutorTest, CrashResumeDuringRollbackIsBitIdentical) {
  ExecutorInput in;
  in.from = core::Topology(4);
  in.from.AddUnits(0, 1, 1);
  core::Topology to(4);
  to.AddUnits(2, 3, 1);
  in.old_routes = {Alloc(0, {0, 1}, 5.0)};
  in.new_routes = {Alloc(0, {2, 3}, 5.0)};
  in.plan = BuildUpdatePlan(in.from, to, in.old_routes, in.new_routes);

  ExecutorOptions opts;
  opts.actuation.seed = 11;
  opts.actuation.circuit_failure_prob = 1.0;
  opts.actuation.latency_cv = 0.3;
  ExecResult live = UpdateExecutor::ExecutePlan(in, opts);
  ASSERT_EQ(live.outcome, ExecOutcome::kAborted);

  const size_t n = live.log.records.size();
  for (size_t cut = 0; cut < n; ++cut) {
    IntentLog prefix;
    prefix.records.assign(live.log.records.begin(),
                          live.log.records.begin() + cut);
    UpdateExecutor resumed(in, opts);
    resumed.Replay(prefix);
    ExecResult res = resumed.Finish();
    ASSERT_TRUE(res.log == live.log) << "cut at record " << cut;
    EXPECT_TRUE(res.final_topology == live.final_topology) << "cut " << cut;
  }
}

TEST(UpdateExecutorTest, StepUntilPausesAndResumes) {
  ExecutorInput in = SquareInput();
  ExecResult whole = UpdateExecutor::ExecutePlan(in, {});

  UpdateExecutor ex(in, {});
  double limit = 0.5;
  while (!ex.StepUntil(limit)) limit += 0.5;
  ExecResult res = ex.Finish();
  EXPECT_EQ(res.makespan, whole.makespan);
  EXPECT_TRUE(res.log == whole.log);
}

// Concurrency: the executor has no hidden global state -- N threads
// running identical plans must produce identical results. (Run under
// TSan via the 'Parallel' label.)
TEST(UpdateExecutorParallelTest, IdenticalResultsAcrossThreads) {
  ExecutorOptions opts;
  opts.actuation.seed = 17;
  opts.actuation.circuit_failure_prob = 0.3;
  opts.actuation.latency_cv = 0.4;
  ExecResult base = UpdateExecutor::ExecutePlan(SquareInput(), opts);

  constexpr int kThreads = 8;
  std::vector<ExecResult> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      results[static_cast<size_t>(i)] =
          UpdateExecutor::ExecutePlan(SquareInput(), opts);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const ExecResult& r : results) {
    EXPECT_TRUE(r.log == base.log);
    EXPECT_TRUE(r.stats == base.stats);
    EXPECT_TRUE(r.final_topology == base.final_topology);
  }
}

TEST(IntentLogTest, CorruptLineThrows) {
  EXPECT_THROW(IntentLog::Parse("done 3"), std::runtime_error);
  EXPECT_THROW(IntentLog::Parse("frobnicate 1 2 3.0"), std::runtime_error);
}

TEST(IntentLogTest, DropEveryNthLosesRecords) {
  IntentLog log;
  for (int i = 0; i < 10; ++i) {
    log.records.push_back({IntentKind::kOpDone, i, 1, 0.5 * i});
  }
  IntentLog::TestOnlySetDropEveryNth(3);
  IntentLog lossy = IntentLog::Parse(log.Serialize());
  IntentLog::TestOnlySetDropEveryNth(0);
  EXPECT_EQ(lossy.records.size(), 7u);
  EXPECT_FALSE(lossy == log);
  EXPECT_TRUE(IntentLog::Parse(log.Serialize()) == log);
}

}  // namespace
}  // namespace owan::update
