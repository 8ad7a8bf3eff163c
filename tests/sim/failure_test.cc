// Failure-injection tests for the simulator (§3.4): fiber cuts mid-run.
#include <gtest/gtest.h>

#include "core/owan.h"
#include "fault/fault_event.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "topo/topologies.h"

namespace owan::sim {
namespace {

core::Request Req(int id, int src, int dst, double size, double arrival) {
  core::Request r;
  r.id = id;
  r.src = src;
  r.dst = dst;
  r.size = size;
  r.arrival = arrival;
  return r;
}

core::OwanTe MakeOwan() {
  core::OwanOptions opt;
  opt.anneal.max_iterations = 200;
  return core::OwanTe(opt);
}

TEST(FailureInjectionTest, SurvivableCutStillCompletes) {
  // Cut the 0-1 fiber at t=300: the 0-1 circuit re-routes over 0-2-3-1 on
  // a spare wavelength, so the transfer still completes.
  topo::Wan wan = topo::MakeMotivatingExample();
  core::OwanTe te = MakeOwan();
  SimOptions opt;
  opt.faults.Add(fault::FaultEvent::FiberCut(300.0, 0));
  auto res = RunSimulation(wan, {Req(0, 0, 1, 9000.0, 0.0)}, te, opt);
  EXPECT_TRUE(res.transfers[0].completed);
}

TEST(FailureInjectionTest, CutSlowsButDoesNotStrand) {
  // Internet2: cutting SEA-SLC halves SEA's egress options; a SEA->NYC
  // transfer must still finish (via SEA-LAX), just possibly later.
  topo::Wan wan = topo::MakeInternet2();
  core::OwanTe te1 = MakeOwan();
  auto clean =
      RunSimulation(wan, {Req(0, 0, 8, 12000.0, 0.0)}, te1);
  core::OwanTe te2 = MakeOwan();
  SimOptions opt;
  // SEA-SLC down from the start.
  opt.faults.Add(fault::FaultEvent::FiberCut(0.0, 0));
  auto cut = RunSimulation(wan, {Req(0, 0, 8, 12000.0, 0.0)}, te2, opt);
  EXPECT_TRUE(clean.transfers[0].completed);
  EXPECT_TRUE(cut.transfers[0].completed);
  EXPECT_GE(cut.transfers[0].completed_at,
            clean.transfers[0].completed_at - 1e-6);
}

TEST(FailureInjectionTest, IsolatingCutsStrandOnlyAffectedTransfers) {
  // Cut both of router 0's fibers: its transfer can never finish, but an
  // unrelated 2->3 transfer is untouched.
  topo::Wan wan = topo::MakeMotivatingExample();
  core::OwanTe te = MakeOwan();
  SimOptions opt;
  opt.faults.Add(fault::FaultEvent::FiberCut(300.0, 0));
  opt.faults.Add(fault::FaultEvent::FiberCut(300.0, 1));
  opt.max_time_s = 3600.0;
  auto res = RunSimulation(
      wan,
      {Req(0, 0, 1, 90000.0, 0.0), Req(1, 2, 3, 3000.0, 0.0)}, te, opt);
  EXPECT_FALSE(res.transfers[0].completed);
  EXPECT_TRUE(res.transfers[1].completed);
}

TEST(FailureInjectionTest, FailuresSortedByTime) {
  topo::Wan wan = topo::MakeMotivatingExample();
  core::OwanTe te = MakeOwan();
  SimOptions opt;
  // Deliberately out of order; both must apply.
  opt.faults.Add(fault::FaultEvent::FiberCut(600.0, 1));
  opt.faults.Add(fault::FaultEvent::FiberCut(300.0, 0));
  opt.max_time_s = 3600.0;
  auto res = RunSimulation(wan, {Req(0, 0, 1, 60000.0, 0.0)}, te, opt);
  EXPECT_FALSE(res.transfers[0].completed);  // router 0 isolated by 600 s
}

TEST(FailureInjectionTest, BaselineAlsoSeesShrunkenTopology) {
  // The physical failure shrinks the topology for every scheme, including
  // fixed-topology baselines (their "fixed" topology is what exists).
  topo::Wan wan = topo::MakeMotivatingExample();
  core::OwanOptions oo;
  oo.control = core::ControlLevel::kRateAndRouting;
  core::OwanTe te(oo);
  SimOptions opt;
  opt.faults.Add(fault::FaultEvent::FiberCut(300.0, 0));
  opt.faults.Add(fault::FaultEvent::FiberCut(300.0, 1));
  opt.max_time_s = 3600.0;
  auto res = RunSimulation(wan, {Req(0, 0, 1, 90000.0, 0.0)}, te, opt);
  EXPECT_FALSE(res.transfers[0].completed);
  EXPECT_GT(res.transfers[0].delivered, 0.0);  // progressed before the cut
}

}  // namespace
}  // namespace owan::sim
