// End-to-end telemetry: the instrumented control loop (simulator ->
// OwanTe -> annealing -> update scheduler) must produce (a) bit-identical
// metric fingerprints across same-seed runs, (b) a trace whose spans nest
// the way the layers call each other, and (c) registry counters that agree
// with the SimResult the run returns.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/owan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "topo/topologies.h"

namespace owan::obs {
namespace {

std::vector<core::Request> SmallWorkload() {
  std::vector<core::Request> reqs;
  for (int i = 0; i < 4; ++i) {
    core::Request r;
    r.id = i;
    r.src = i % 3;
    r.dst = (i + 1) % 3 == r.src ? (i + 2) % 3 : (i + 1) % 3;
    r.size = 4000.0 + 500.0 * i;
    r.arrival = 300.0 * i;
    reqs.push_back(r);
  }
  return reqs;
}

sim::SimResult RunOnce(uint64_t seed) {
  const topo::Wan wan = topo::MakeMotivatingExample();
  core::OwanOptions oo;
  oo.seed = seed;
  oo.anneal.max_iterations = 60;
  core::OwanTe te(oo);
  sim::SimOptions opt;
  opt.max_time_s = 4 * 3600.0;
  return sim::RunSimulation(wan, SmallWorkload(), te, opt);
}

// Two coast-to-coast bulk transfers on Internet2, with every slot's
// reconfiguration run through the update executor.
sim::SimResult RunWithExecutedUpdates() {
  const topo::Wan wan = topo::MakeInternet2();
  std::vector<core::Request> reqs(2);
  reqs[0].id = 0;
  reqs[0].src = wan.SiteByName("SEA");
  reqs[0].dst = wan.SiteByName("NYC");
  reqs[0].size = 90000.0;
  reqs[1].id = 1;
  reqs[1].src = wan.SiteByName("LAX");
  reqs[1].dst = wan.SiteByName("CHI");
  reqs[1].size = 60000.0;
  core::OwanOptions oo;
  oo.seed = 11;
  oo.anneal.max_iterations = 200;
  core::OwanTe te(oo);
  sim::SimOptions opt;
  opt.execute_updates = true;
  return sim::RunSimulation(wan, reqs, te, opt);
}

TEST(TelemetryTest, SameSeedRunsFingerprintIdentically) {
  MetricsRegistry& reg = MetricsRegistry::Global();

  reg.Reset();
  const sim::SimResult a = RunOnce(11);
  const std::string fp_a = reg.Snapshot().DeterministicFingerprint();

  reg.Reset();
  const sim::SimResult b = RunOnce(11);
  const std::string fp_b = reg.Snapshot().DeterministicFingerprint();

  ASSERT_FALSE(fp_a.empty());
  EXPECT_EQ(fp_a, fp_b);
  EXPECT_EQ(a.slots, b.slots);

  // A different seed takes a different search path; its fingerprint is
  // free to differ (and virtually always does).
  reg.Reset();
  (void)RunOnce(12);
  const std::string fp_c = reg.Snapshot().DeterministicFingerprint();
  EXPECT_NE(fp_a, fp_c);
}

TEST(TelemetryTest, CountersAgreeWithSimResult) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.Reset();
  const sim::SimResult result = RunOnce(7);

  MetricsSnapshot snap = reg.Snapshot();
  // A counter the run never touched is simply unregistered — that reads
  // as zero, same as a registered-but-zero one.
  auto counter = [&](const std::string& name) -> int64_t {
    for (const auto& c : snap.counters) {
      if (c.name == name) return c.value;
    }
    return 0;
  };
  EXPECT_EQ(counter("sim.slots"), result.slots);
  EXPECT_EQ(counter("sim.fault_events"), result.fault_events);
  int completed = 0;
  for (const auto& t : result.transfers) {
    if (t.completed) ++completed;
  }
  EXPECT_EQ(counter("sim.transfers_completed"), completed);
  EXPECT_EQ(counter("owan.slots"), result.slots);
  EXPECT_GT(counter("anneal.runs"), 0);
  EXPECT_GT(counter("anneal.iterations"), 0);
  EXPECT_GT(counter("energy.evaluations"), 0);

  // recovery_seconds rides a kSimSeconds histogram, entry for entry.
  for (const auto& h : snap.histograms) {
    if (h.name == "sim.recovery_seconds") {
      EXPECT_EQ(h.count,
                static_cast<int64_t>(result.recovery_seconds.size()));
      EXPECT_EQ(h.unit, Unit::kSimSeconds);
    }
    if (h.name == "sim.compute_seconds") {
      EXPECT_EQ(h.unit, Unit::kSeconds);
    }
  }
}

TEST(TelemetryTest, RuntimeDisableStopsMacroWrites) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.Reset();
  SetMetricsEnabled(false);
  (void)RunOnce(3);
  SetMetricsEnabled(true);

  MetricsSnapshot snap = reg.Snapshot();
  for (const auto& c : snap.counters) {
    EXPECT_EQ(c.value, 0) << c.name;
  }
  for (const auto& h : snap.histograms) {
    EXPECT_EQ(h.count, 0) << h.name;
  }
}

TEST(TelemetryTest, TraceNestsSimulatorControllerAndSearch) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  (void)RunOnce(5);
  tracer.Stop();

  std::vector<TraceEvent> events = tracer.Events();
  auto find = [&](const char* name) -> const TraceEvent* {
    for (const TraceEvent& e : events) {
      if (std::string(e.name) == name) return &e;
    }
    return nullptr;
  };
  const TraceEvent* run = find("run");
  const TraceEvent* slot = find("slot");
  const TraceEvent* compute = find("owan.compute");
  const TraceEvent* anneal = find("anneal");
  const TraceEvent* chain = find("anneal.chain");
  ASSERT_NE(run, nullptr);
  ASSERT_NE(slot, nullptr);
  ASSERT_NE(compute, nullptr);
  ASSERT_NE(anneal, nullptr);
  ASSERT_NE(chain, nullptr);

  auto contains = [](const TraceEvent& outer, const TraceEvent& inner) {
    return outer.ts_ns <= inner.ts_ns &&
           inner.ts_ns + std::max<int64_t>(inner.dur_ns, 0) <=
               outer.ts_ns + outer.dur_ns;
  };
  // The whole stack runs on the driving thread for a single-chain search,
  // so timestamp containment is the nesting Perfetto will render.
  EXPECT_TRUE(contains(*run, *slot));
  EXPECT_TRUE(contains(*slot, *compute));
  EXPECT_TRUE(contains(*compute, *anneal));
  EXPECT_TRUE(contains(*anneal, *chain));

  tracer.Clear();
}

// The slot loop runs most of an executed update's steps in
// UpdateExecutor::StepUntil and the rest in Finish. Both record an
// "update.execute" span, one after the other, so a sum over the span name
// (as perfbench's update.execute_ms takes it) covers every step once and
// leaves none to the simulator's own time.
TEST(TelemetryTest, ExecutedUpdatesSpanTheirStepsAsUpdateExecute) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  const sim::SimResult result = RunWithExecutedUpdates();
  tracer.Stop();
  ASSERT_GT(result.updates_executed, 0);

  std::vector<TraceEvent> spans;
  for (const TraceEvent& e : tracer.Events()) {
    if (std::string(e.cat) == "update" &&
        std::string(e.name) == "update.execute") {
      spans.push_back(e);
    }
  }
  const auto has_arg = [](const TraceEvent& e, const char* key) {
    for (int i = 0; i < e.num_args; ++i) {
      if (std::string(e.args[i].key) == key) return true;
    }
    return false;
  };
  const auto stepped = std::count_if(
      spans.begin(), spans.end(),
      [&](const TraceEvent& e) { return has_arg(e, "until_s"); });
  EXPECT_EQ(stepped, result.updates_executed);
  EXPECT_EQ(spans.size(), 2u * static_cast<size_t>(result.updates_executed));
  std::sort(spans.begin(), spans.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_ns < b.ts_ns;
            });
  for (size_t i = 0; i + 1 < spans.size(); ++i) {
    EXPECT_EQ(spans[i].tid, spans[i + 1].tid);
    EXPECT_LE(spans[i].ts_ns + spans[i].dur_ns, spans[i + 1].ts_ns);
  }

  tracer.Clear();
}

}  // namespace
}  // namespace owan::obs
