// Unified fault-injection runs: sub-slot interrupts, controller crashes,
// availability metrics, and seeded-stochastic reproducibility (§3.4).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/owan.h"
#include "fault/fault_generator.h"
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

// Fixed-rate scheme: every demand gets its full rate_cap (capped at theta)
// on the direct path, and Compute calls are counted — the observable for
// controller-crash freezing.
class CountingScheme : public core::TeScheme {
 public:
  std::string name() const override { return "counting"; }
  core::TeOutput Compute(const core::TeInput& input) override {
    ++calls;
    core::TeOutput out;
    for (const core::TransferDemand& d : input.demands) {
      core::TransferAllocation a;
      a.id = d.id;
      if (input.topology->Units(d.src, d.dst) > 0) {
        core::PathAllocation pa;
        pa.path.nodes = {d.src, d.dst};
        pa.rate = std::min(d.rate_cap,
                           input.optical->wavelength_capacity());
        a.paths.push_back(pa);
      }
      out.allocations.push_back(a);
    }
    return out;
  }
  int calls = 0;
};

TEST(FaultInjectionTest, SubSlotCutInterruptsTheRunningSlot) {
  topo::Wan wan = topo::MakeMotivatingExample();
  core::OwanTe te = MakeOwan();
  SimOptions opt;
  opt.faults.Add(fault::FaultEvent::FiberCut(450.0, 0));  // mid-slot
  auto res = RunSimulation(wan, {Req(0, 0, 1, 9000.0, 0.0)}, te, opt);
  EXPECT_TRUE(res.transfers[0].completed);
  EXPECT_EQ(res.fault_events, 1);
  // The slot running at 450 was truncated: an extra sub-slot compute point
  // appears exactly at the event time.
  bool saw_sub_slot = false;
  for (const auto& [t, rate] : res.slot_throughput) {
    if (t == 450.0) saw_sub_slot = true;
  }
  EXPECT_TRUE(saw_sub_slot);
  // The interrupted allocation had work left in its slot.
  EXPECT_GT(res.gigabits_lost_to_faults, 0.0);
  EXPECT_TRUE(res.invariant_violations.empty())
      << res.invariant_violations.front();
}

TEST(FaultInjectionTest, CutAndRepairRecoversCapacity) {
  // Cut SEA-SLC mid-run, repair it later: the transfer must finish no
  // later than under a permanent cut, and a recovery episode is recorded.
  topo::Wan wan = topo::MakeInternet2();
  core::OwanTe te1 = MakeOwan();
  SimOptions cut_only;
  cut_only.faults.Add(fault::FaultEvent::FiberCut(600.0, 0));
  auto permanent =
      RunSimulation(wan, {Req(0, 0, 8, 24000.0, 0.0)}, te1, cut_only);

  core::OwanTe te2 = MakeOwan();
  SimOptions repaired;
  repaired.faults.Add(fault::FaultEvent::FiberCut(600.0, 0));
  repaired.faults.Add(fault::FaultEvent::FiberRepair(1800.0, 0));
  auto rep = RunSimulation(wan, {Req(0, 0, 8, 24000.0, 0.0)}, te2, repaired);

  EXPECT_TRUE(permanent.transfers[0].completed);
  EXPECT_TRUE(rep.transfers[0].completed);
  EXPECT_LE(rep.transfers[0].completed_at,
            permanent.transfers[0].completed_at + 1e-6);
  EXPECT_EQ(rep.fault_events, 2);
  EXPECT_FALSE(rep.recovery_seconds.empty());
  EXPECT_GE(rep.MeanTimeToRecover(), 0.0);
  EXPECT_TRUE(rep.invariant_violations.empty())
      << rep.invariant_violations.front();
}

TEST(FaultInjectionTest, SiteOutageAndRepairKeepInvariants) {
  topo::Wan wan = topo::MakeInternet2();
  core::OwanTe te = MakeOwan();
  SimOptions opt;
  const net::NodeId slc = wan.SiteByName("SLC");
  opt.faults.Add(fault::FaultEvent::SiteFail(750.0, slc));
  opt.faults.Add(fault::FaultEvent::SiteRepair(2100.0, slc));
  auto res = RunSimulation(wan, {Req(0, 0, 8, 24000.0, 0.0)}, te, opt);
  EXPECT_TRUE(res.transfers[0].completed);  // SEA-LAX detour survives
  EXPECT_EQ(res.fault_events, 2);
  EXPECT_TRUE(res.invariant_violations.empty())
      << res.invariant_violations.front();
}

TEST(FaultInjectionTest, TransceiverFailureShrinksPortBudget) {
  topo::Wan wan = topo::MakeMotivatingExample();
  core::OwanTe te = MakeOwan();
  SimOptions opt;
  // Site 0 loses one of its two ports: its degree drops to one link.
  opt.faults.Add(fault::FaultEvent::TransceiverFail(300.0, 0, 1, 0));
  auto res = RunSimulation(wan, {Req(0, 0, 3, 12000.0, 0.0)}, te, opt);
  EXPECT_TRUE(res.transfers[0].completed);
  EXPECT_TRUE(res.invariant_violations.empty())
      << res.invariant_violations.front();
}

TEST(FaultInjectionTest, ControllerCrashFreezesLastRatesUntilRecovery) {
  topo::Wan wan = topo::MakeMotivatingExample();
  CountingScheme scheme;
  SimOptions opt;
  opt.faults.Add(fault::FaultEvent::ControllerCrash(300.0));
  opt.faults.Add(fault::FaultEvent::ControllerRecover(900.0));
  // 9000 Gb at 10 Gbps = 900 s: slot 1 computed, slots 2-3 run on frozen
  // rates, so the transfer finishes with a single Compute call.
  auto res = RunSimulation(wan, {Req(0, 0, 1, 9000.0, 0.0)}, scheme, opt);
  EXPECT_TRUE(res.transfers[0].completed);
  EXPECT_DOUBLE_EQ(res.transfers[0].completed_at, 900.0);
  EXPECT_EQ(scheme.calls, 1);
  EXPECT_DOUBLE_EQ(res.transfers[0].stalled_s, 0.0);
  EXPECT_TRUE(res.invariant_violations.empty())
      << res.invariant_violations.front();
}

TEST(FaultInjectionTest, ArrivalsDuringCrashWaitForRecovery) {
  topo::Wan wan = topo::MakeMotivatingExample();
  CountingScheme scheme;
  SimOptions opt;
  opt.faults.Add(fault::FaultEvent::ControllerCrash(0.0));
  opt.faults.Add(fault::FaultEvent::ControllerRecover(600.0));
  auto res = RunSimulation(wan, {Req(0, 0, 1, 3000.0, 0.0)}, scheme, opt);
  // Admission is a controller action: nothing moves before 600 s.
  EXPECT_TRUE(res.transfers[0].completed);
  EXPECT_GE(res.transfers[0].completed_at, 600.0);
  EXPECT_TRUE(res.invariant_violations.empty());
}

TEST(FaultInjectionTest, PlantFaultDuringCrashThrottlesFrozenRates) {
  topo::Wan wan = topo::MakeMotivatingExample();
  CountingScheme scheme;
  SimOptions opt;
  opt.max_time_s = 7200.0;
  opt.faults.Add(fault::FaultEvent::ControllerCrash(300.0));
  // Both of site 0's fibers die while the controller is down: the frozen
  // 0->1 allocation rides a link that no longer exists and must be dropped
  // by the data plane, not kept flowing into a black hole.
  opt.faults.Add(fault::FaultEvent::FiberCut(450.0, 0));
  opt.faults.Add(fault::FaultEvent::FiberCut(450.0, 1));
  auto res = RunSimulation(wan, {Req(0, 0, 1, 90000.0, 0.0)}, scheme, opt);
  EXPECT_FALSE(res.transfers[0].completed);
  // Delivered: 10 Gbps x 300 s before the crash + 10 x 150 s before the
  // cut; nothing after.
  EXPECT_NEAR(res.transfers[0].delivered, 4500.0, 1.0);
  EXPECT_GT(res.transfers[0].stalled_s, 0.0);
  EXPECT_TRUE(res.invariant_violations.empty())
      << res.invariant_violations.front();
}

TEST(FaultInjectionTest, SeededStochasticRunIsBitReproducible) {
  topo::Wan wan = topo::MakeInternet2();
  fault::FaultGeneratorOptions fg;
  fg.seed = 5;
  fg.horizon_s = 2.0 * 3600.0;
  fg.fiber = {1800.0, 900.0};
  fg.transceiver = {3600.0, 600.0};
  fg.transceiver_ports = 1;
  fg.controller = {3600.0, 150.0};
  const fault::FaultSchedule schedule =
      GenerateFaultSchedule(wan.optical, fg);
  ASSERT_FALSE(schedule.empty());

  const std::vector<core::Request> reqs = {
      Req(0, 0, 8, 18000.0, 0.0), Req(1, 1, 5, 9000.0, 300.0),
      Req(2, 3, 7, 6000.0, 600.0)};
  SimOptions opt;
  opt.max_time_s = 12.0 * 3600.0;
  opt.faults = schedule;

  core::OwanTe te1 = MakeOwan();
  auto a = RunSimulation(wan, reqs, te1, opt);
  core::OwanTe te2 = MakeOwan();
  auto b = RunSimulation(wan, reqs, te2, opt);

  ASSERT_EQ(a.transfers.size(), b.transfers.size());
  for (size_t i = 0; i < a.transfers.size(); ++i) {
    EXPECT_EQ(a.transfers[i].completed, b.transfers[i].completed);
    EXPECT_DOUBLE_EQ(a.transfers[i].completed_at,
                     b.transfers[i].completed_at);
    EXPECT_DOUBLE_EQ(a.transfers[i].delivered, b.transfers[i].delivered);
    EXPECT_DOUBLE_EQ(a.transfers[i].stalled_s, b.transfers[i].stalled_s);
  }
  EXPECT_EQ(a.slot_throughput, b.slot_throughput);
  EXPECT_EQ(a.recovery_seconds, b.recovery_seconds);
  EXPECT_EQ(a.fault_events, b.fault_events);
  EXPECT_DOUBLE_EQ(a.gigabits_lost_to_faults, b.gigabits_lost_to_faults);
  EXPECT_TRUE(a.invariant_violations.empty())
      << a.invariant_violations.front();
}

}  // namespace
}  // namespace owan::sim
