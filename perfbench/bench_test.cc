// Tests of the benchmark's own machinery: the timing decorator and the
// slot-stepping loop must not change any decision, and the percentile and
// span-union helpers must be exact.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "bench_core.h"
#include "core/owan.h"
#include "layers.h"
#include "sim/simulator.h"
#include "te/greedy.h"
#include "testkit/oracles.h"
#include "topo/topologies.h"
#include "workload/workload.h"

namespace owan::perfbench {
namespace {

TEST(PercentileTest, InterpolatesBetweenClosestRanks) {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 90.0), 3.7);
  EXPECT_DOUBLE_EQ(Percentile(v, 100.0), 4.0);
}

TEST(PercentileTest, ExactOnLargeSampleAndZeros) {
  std::vector<double> v;
  for (int i = 0; i <= 100; ++i) v.push_back(static_cast<double>(100 - i));
  EXPECT_DOUBLE_EQ(Percentile(v, 90.0), 90.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50.0), 50.0);
  // Zero-valued samples stay zero (no histogram bucket midpoints).
  EXPECT_EQ(Percentile({0.0, 0.0, 0.0}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({7.5}, 90.0), 7.5);
  EXPECT_THROW(Percentile({}, 50.0), std::invalid_argument);
}

TEST(UnionLengthTest, MergesOverlapsAndClips) {
  EXPECT_EQ(UnionLengthNs({}, 0, 100), 0);
  EXPECT_EQ(UnionLengthNs({{10, 20}, {15, 30}, {40, 50}}, 0, 100), 30);
  EXPECT_EQ(UnionLengthNs({{-5, 20}, {90, 120}}, 0, 100), 30);
  EXPECT_EQ(UnionLengthNs({{10, 20}, {10, 20}, {12, 18}}, 0, 100), 10);
}

// A small seeded sim with faults and executed updates, run with and without
// the decorator.
sim::SimResult RunSmallSim(bool timed) {
  const topo::Wan wan = topo::MakeInternet2();
  workload::WorkloadParams wp;
  wp.duration_s = 3600.0;
  wp.load_factor = 1.0;
  wp.seed = 5;
  const std::vector<core::Request> requests =
      workload::GenerateWorkload(wan, wp);
  sim::SimOptions so;
  so.faults.Add(fault::FaultEvent::FiberCut(1000.0, 0));
  so.faults.Add(fault::FaultEvent::FiberRepair(2500.0, 0));
  so.execute_updates = true;
  so.actuation.seed = 3;
  so.actuation.circuit_failure_prob = 0.1;
  so.actuation.latency_cv = 0.5;
  core::OwanOptions oo;
  oo.seed = 9;
  oo.anneal.num_chains = 2;
  oo.anneal.num_threads = 2;
  if (!timed) {
    core::OwanTe scheme(oo);
    return sim::RunSimulation(wan, requests, scheme, so);
  }
  TimedScheme scheme(std::make_unique<core::OwanTe>(oo));
  int observed = 0;
  scheme.set_observer(
      [&](const core::TeInput&, const core::TeOutput&) { ++observed; });
  sim::SimResult r = sim::RunSimulation(wan, requests, scheme, so);
  EXPECT_EQ(static_cast<size_t>(observed), scheme.compute_ms().size());
  EXPECT_EQ(scheme.compute_ms().size(), static_cast<size_t>(r.slots));
  return r;
}

TEST(TimedSchemeTest, DecoratorIsTransparent) {
  const sim::SimResult plain = RunSmallSim(false);
  const sim::SimResult timed = RunSmallSim(true);
  ASSERT_GT(plain.slots, 5);
  std::string why;
  EXPECT_TRUE(testkit::SameSimResult(plain, timed, &why)) << why;
}

TEST(AdmissionWorkloadTest, SlotSteppingIsTransparent) {
  AdmissionWorkloadSpec spec = AdmissionSpec(3);
  spec.requests = 3000;
  const topo::Wan wan = topo::MakeByName(spec.topology);

  service::ControllerService whole(
      &wan, std::make_unique<te::GreedyOwanTe>(), spec.service);
  whole.AttachStream(spec.stream, spec.requests);
  whole.Run();

  service::ControllerService stepped(
      &wan, std::make_unique<te::GreedyOwanTe>(), spec.service);
  stepped.AttachStream(spec.stream, spec.requests);
  int steps = 0;
  while (stepped.ingested() < spec.requests) {
    stepped.RunUntilIngested(stepped.ingested() + 1);
    ++steps;
  }
  stepped.Run();
  EXPECT_GT(steps, 10);
  EXPECT_EQ(stepped.Fingerprint(), whole.Fingerprint());
  EXPECT_EQ(stepped.stats().admitted, whole.stats().admitted);

  // The workload's own run and its retained-records check agree too.
  const auto w = MakeAdmissionWorkload(spec);
  w->Setup();
  RunOutcome out = w->Run(nullptr);
  EXPECT_EQ(out.fingerprint, whole.Fingerprint());
  EXPECT_EQ(out.failed, 0);
  std::string why;
  EXPECT_TRUE(w->Verify(out, &why)) << why;
  EXPECT_GT(out.completion_s_mean, 0.0);
}

TEST(WorkloadTest, UnknownNameIsRejected) {
  EXPECT_THROW(MakeWorkload("isp40-steady", 1), std::invalid_argument);
  for (const std::string& name : WorkloadNames()) {
    EXPECT_NO_THROW(MakeWorkload(name, 1));
  }
}

}  // namespace
}  // namespace owan::perfbench
