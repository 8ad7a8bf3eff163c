// Pinned SimResult digests. Each case runs sim::RunSimulation over a seeded
// input that exercises one part of the slot loop (plant faults, controller
// crash/recover with frozen allocations, QoT span degradation, executed
// updates under a flaky actuation model, invariant violations, inputs the
// streaming Submit would refuse) and digests the whole SimResult bit for
// bit — every per-transfer field, the slot series, the fault, recovery and
// update metrics, and the violation strings. Only the wall-clock
// compute_seconds is left out. A refactor of the loop must keep every
// digest unchanged.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/owan.h"
#include "fault/fault_generator.h"
#include "sim/simulator.h"
#include "te/amoeba.h"
#include "te/greedy.h"
#include "topo/topologies.h"
#include "workload/stream.h"

namespace owan::sim {
namespace {

// FNV-1a over the little-endian bytes of each value.
class Digest {
 public:
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      acc_ = (acc_ ^ ((v >> (8 * i)) & 0xffu)) * 1099511628211ULL;
    }
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double d) { U64(std::bit_cast<uint64_t>(d)); }
  void Str(const std::string& s) {
    U64(s.size());
    for (char c : s) acc_ = (acc_ ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
  }
  uint64_t value() const { return acc_; }

 private:
  uint64_t acc_ = 14695981039346656037ULL;
};

uint64_t DigestResult(const SimResult& r) {
  Digest d;
  d.U64(r.transfers.size());
  for (const TransferRecord& t : r.transfers) {
    d.I64(t.request.id);
    d.I64(t.request.src);
    d.I64(t.request.dst);
    d.F64(t.request.size);
    d.F64(t.request.arrival);
    d.F64(t.request.deadline);
    d.U64(t.admitted);
    d.U64(t.completed);
    d.F64(t.completed_at);
    d.F64(t.delivered);
    d.F64(t.delivered_by_deadline);
    d.F64(t.stalled_s);
  }
  d.F64(r.makespan);
  d.I64(r.slots);
  d.I64(r.topology_changes);
  d.U64(r.slot_throughput.size());
  for (const auto& [t, rate] : r.slot_throughput) {
    d.F64(t);
    d.F64(rate);
  }
  d.I64(r.fault_events);
  d.F64(r.gigabits_lost_to_faults);
  d.U64(r.recovery_seconds.size());
  for (double s : r.recovery_seconds) d.F64(s);
  d.U64(r.invariant_violations.size());
  for (const std::string& v : r.invariant_violations) d.Str(v);
  d.I64(r.updates_executed);
  d.I64(r.update_aborts);
  d.I64(r.update_retries);
  d.I64(r.update_forced_ops);
  d.F64(r.update_exec_seconds);
  return d.value();
}

std::string Describe(const SimResult& r) {
  int completed = 0;
  for (const TransferRecord& t : r.transfers) completed += t.completed;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "transfers=%zu completed=%d slots=%d changes=%d faults=%d "
                "recoveries=%zu violations=%zu updates=%d aborts=%d "
                "retries=%d",
                r.transfers.size(), completed, r.slots, r.topology_changes,
                r.fault_events, r.recovery_seconds.size(),
                r.invariant_violations.size(), r.updates_executed,
                r.update_aborts, r.update_retries);
  return buf;
}

#define EXPECT_DIGEST(result, pinned)                                      \
  EXPECT_EQ(DigestResult(result), pinned##ULL)                             \
      << std::hex << "digest 0x" << DigestResult(result) << std::dec      \
      << " (" << Describe(result) << ")"

core::Request Req(int id, int src, int dst, double size, double arrival,
                  double deadline = core::kNoDeadline) {
  core::Request r;
  r.id = id;
  r.src = src;
  r.dst = dst;
  r.size = size;
  r.arrival = arrival;
  r.deadline = deadline;
  return r;
}

std::unique_ptr<core::OwanTe> MakeOwan(uint64_t seed) {
  core::OwanOptions opt;
  opt.seed = seed;
  opt.anneal.max_iterations = 150;
  return std::make_unique<core::OwanTe>(opt);
}

// Bulk transfers lasting several slots on a 10 G plant; `scale` sizes them
// for faster line rates.
std::vector<core::Request> Stream(const topo::Wan& wan, uint64_t seed,
                                  int count, double deadline_fraction,
                                  double scale = 1.0) {
  workload::StreamParams p;
  p.arrivals_per_s = 0.01;
  p.mice_mean = 4000.0 * scale;
  p.elephant_fraction = 0.3;
  p.elephant_min = 20000.0 * scale;
  p.elephant_max = 150000.0 * scale;
  p.deadline_fraction = deadline_fraction;
  p.laxity_min_slots = 4.0;
  p.laxity_max_slots = 40.0;
  p.seed = seed;
  return workload::TakeStream(wan, p, count);
}

// Routes every demand over the direct site pair at twice its rate cap,
// whatever the topology holds: after a cut it keeps allocating on dead
// links and over capacity, which is what the invariant checker must flag.
class RecklessScheme : public core::TeScheme {
 public:
  std::string name() const override { return "reckless"; }
  core::TeOutput Compute(const core::TeInput& input) override {
    core::TeOutput out;
    for (const core::TransferDemand& d : input.demands) {
      core::TransferAllocation a;
      a.id = d.id;
      core::PathAllocation pa;
      pa.path.nodes = {d.src, d.dst};
      pa.rate = 2.0 * d.rate_cap;
      a.paths.push_back(pa);
      out.allocations.push_back(a);
    }
    return out;
  }
};

// On a 4-site square with one spare port per site, moves the spare
// wavelength between links 0-1 and 0-2 every slot, so every slot carries a
// real circuit update; demands ride both two-hop paths to site 3.
class ToggleScheme : public core::TeScheme {
 public:
  std::string name() const override { return "toggle"; }
  core::TeOutput Compute(const core::TeInput& input) override {
    core::TeOutput out;
    core::Topology next = *input.topology;
    const bool upper = input.topology->Units(0, 1) < 2;
    next.SetUnits(0, 1, upper ? 2 : 1);
    next.SetUnits(0, 2, upper ? 1 : 2);
    out.new_topology = next;
    const double theta = input.optical->wavelength_capacity();
    for (const core::TransferDemand& d : input.demands) {
      core::TransferAllocation a;
      a.id = d.id;
      for (net::NodeId via : {1, 2}) {
        core::PathAllocation pa;
        pa.path.nodes = {d.src, via, d.dst};
        pa.rate = std::min(d.rate_cap / 2.0, theta);
        a.paths.push_back(pa);
      }
      out.allocations.push_back(a);
    }
    return out;
  }
};

// Every demand gets min(rate cap, one wavelength) on the direct link, if
// the topology has one.
class DirectScheme : public core::TeScheme {
 public:
  std::string name() const override { return "direct"; }
  core::TeOutput Compute(const core::TeInput& input) override {
    core::TeOutput out;
    for (const core::TransferDemand& d : input.demands) {
      core::TransferAllocation a;
      a.id = d.id;
      if (input.topology->Units(d.src, d.dst) > 0) {
        core::PathAllocation pa;
        pa.path.nodes = {d.src, d.dst};
        pa.rate = std::min(d.rate_cap, input.optical->wavelength_capacity());
        a.paths.push_back(pa);
      }
      out.allocations.push_back(a);
    }
    return out;
  }
};

// Two sites joined by one fiber; the default topology lights both
// wavelengths between them with both of each site's ports.
topo::Wan MakePair() {
  std::vector<optical::SiteInfo> sites = {{"A", 2, 0}, {"B", 2, 0}};
  optical::OpticalNetwork on(std::move(sites), 10000.0, 10.0);
  on.AddFiber(0, 1, 500.0, 2);
  core::Topology topo(on.NumSites());
  topo.AddUnits(0, 1, 2);
  return topo::Wan{"pair", std::move(on), std::move(topo), {"A", "B"}};
}

topo::Wan MakeSquare() {
  std::vector<optical::SiteInfo> sites = {
      {"R0", 3, 0}, {"R1", 3, 0}, {"R2", 3, 0}, {"R3", 3, 0}};
  optical::OpticalNetwork on(std::move(sites), 10000.0, 10.0);
  core::Topology topo(on.NumSites());
  const int fibers[4][2] = {{0, 1}, {0, 2}, {1, 3}, {2, 3}};
  for (const auto& f : fibers) {
    on.AddFiber(f[0], f[1], 500.0, 2);
    topo.AddUnits(f[0], f[1], 1);
  }
  return topo::Wan{"square", std::move(on), std::move(topo),
                   {"R0", "R1", "R2", "R3"}};
}

TEST(SimResultDigest, FiberSiteAndTransceiverFaults) {
  const topo::Wan wan = topo::MakeInternet2();
  const std::vector<core::Request> reqs = Stream(wan, 3, 14, 0.5);
  SimOptions opt;
  opt.max_time_s = 10 * 3600.0;
  opt.faults.Add(fault::FaultEvent::FiberCut(450.0, 0));
  opt.faults.Add(fault::FaultEvent::SiteFail(1300.0, wan.SiteByName("SLC")));
  opt.faults.Add(fault::FaultEvent::TransceiverFail(1700.0, 4, 1, 0));
  opt.faults.Add(fault::FaultEvent::FiberRepair(2000.0, 0));
  opt.faults.Add(fault::FaultEvent::SiteRepair(2900.0, wan.SiteByName("SLC")));
  opt.faults.Add(fault::FaultEvent::TransceiverRepair(3350.0, 4, 1, 0));
  auto te = MakeOwan(5);
  const SimResult r = RunSimulation(wan, reqs, *te, opt);
  EXPECT_EQ(r.fault_events, 6);
  EXPECT_GT(r.gigabits_lost_to_faults, 0.0);
  EXPECT_DIGEST(r, 0xecdd2c0cf0cc4d61);
}

TEST(SimResultDigest, CrashFreezesAndPrunesAllocations) {
  // The controller is down from 300 s to 2100 s. Short transfers finish
  // on frozen rates inside the outage, and two cuts shrink the plant under
  // the frozen allocations while nobody can recompute.
  const topo::Wan wan = topo::MakeInternet2();
  std::vector<core::Request> reqs;
  const int pairs[6][2] = {{0, 8}, {1, 8}, {0, 5}, {2, 7}, {1, 6}, {3, 8}};
  for (int i = 0; i < 6; ++i) {
    reqs.push_back(Req(i, pairs[i][0], pairs[i][1],
                       i % 2 == 0 ? 2500.0 : 40000.0, 0.0));
  }
  reqs.push_back(Req(6, 4, 0, 3000.0, 600.0));  // arrives while down
  SimOptions opt;
  opt.max_time_s = 8 * 3600.0;
  opt.faults.Add(fault::FaultEvent::ControllerCrash(300.0));
  opt.faults.Add(fault::FaultEvent::FiberCut(700.0, 0));
  opt.faults.Add(fault::FaultEvent::FiberCut(1250.0, 3));
  opt.faults.Add(fault::FaultEvent::ControllerRecover(2100.0));
  opt.faults.Add(fault::FaultEvent::FiberRepair(2400.0, 0));
  te::GreedyOwanTe te;
  const SimResult r = RunSimulation(wan, reqs, te, opt);
  EXPECT_EQ(r.fault_events, 5);
  EXPECT_DIGEST(r, 0xe2d423fbb9a04215);
}

TEST(SimResultDigest, CrashPrunesRatesOfATransferThatFinished) {
  // Both transfers ride the two-wavelength link at 10 G each. The
  // controller goes down at 300 s and the short transfer finishes on frozen
  // rates at 450 s. At 700 s a lost transceiver shrinks the link to one
  // wavelength while nobody can recompute, so the data plane scales the
  // frozen rates down to fit.
  const topo::Wan wan = MakePair();
  const std::vector<core::Request> reqs = {Req(0, 0, 1, 4500.0, 0.0),
                                           Req(1, 0, 1, 60000.0, 0.0)};
  SimOptions opt;
  opt.faults.Add(fault::FaultEvent::ControllerCrash(300.0));
  opt.faults.Add(fault::FaultEvent::TransceiverFail(700.0, 0, 1, 0));
  opt.faults.Add(fault::FaultEvent::ControllerRecover(1500.0));
  DirectScheme te;
  const SimResult r = RunSimulation(wan, reqs, te, opt);
  EXPECT_DOUBLE_EQ(r.transfers[0].completed_at, 450.0);
  EXPECT_DIGEST(r, 0xf8e9c91d7db77260);
}

TEST(SimResultDigest, SeededStochasticFaults) {
  const topo::Wan wan = topo::MakeInternet2();
  fault::FaultGeneratorOptions fg;
  fg.seed = 9;
  fg.horizon_s = 3 * 3600.0;
  fg.fiber = {2400.0, 900.0};
  fg.site = {7200.0, 600.0};
  fg.transceiver = {3600.0, 600.0};
  fg.transceiver_ports = 1;
  fg.controller = {3600.0, 400.0};
  SimOptions opt;
  opt.max_time_s = 12 * 3600.0;
  opt.faults = fault::GenerateFaultSchedule(wan.optical, fg);
  ASSERT_GT(opt.faults.events.size(), 4u);
  const std::vector<core::Request> reqs = Stream(wan, 17, 12, 0.0);
  auto te = MakeOwan(17);
  const SimResult r = RunSimulation(wan, reqs, *te, opt);
  EXPECT_FALSE(r.recovery_seconds.empty());
  EXPECT_DIGEST(r, 0x4565b53462535efc);
}

TEST(SimResultDigest, QotSpanDegradation) {
  topo::WanParams graded;
  graded.wavelength_gbps = 200.0;
  graded.reach_km = 5000.0;
  graded.qot.enabled = true;
  const topo::Wan wan = topo::MakeInternet2(graded);
  const std::vector<core::Request> reqs = Stream(wan, 23, 10, 0.3, 20.0);
  SimOptions opt;
  opt.max_time_s = 10 * 3600.0;
  opt.faults.Add(fault::FaultEvent::SpanDegrade(400.0, 1, 9.0));
  opt.faults.Add(fault::FaultEvent::SpanDegrade(950.0, 4, 60.0));
  opt.faults.Add(fault::FaultEvent::FiberCut(1500.0, 6));
  opt.faults.Add(fault::FaultEvent::SpanRepair(2300.0, 1));
  opt.faults.Add(fault::FaultEvent::FiberRepair(2800.0, 6));
  opt.faults.Add(fault::FaultEvent::SpanRepair(3400.0, 4));
  auto te = MakeOwan(23);
  const SimResult r = RunSimulation(wan, reqs, *te, opt);
  EXPECT_EQ(r.fault_events, 6);
  EXPECT_DIGEST(r, 0x7f6332ae7a35041);
}

TEST(SimResultDigest, ExecutedUpdatesUnderFlakyActuation) {
  const topo::Wan wan = topo::MakeInternet2();
  const std::vector<core::Request> reqs = Stream(wan, 29, 12, 0.0);
  SimOptions opt;
  opt.max_time_s = 10 * 3600.0;
  opt.execute_updates = true;
  opt.actuation.seed = 21;
  opt.actuation.circuit_failure_prob = 0.2;
  opt.actuation.route_failure_prob = 0.05;
  opt.actuation.latency_cv = 0.4;
  opt.actuation.straggler_prob = 0.1;
  opt.faults.Add(fault::FaultEvent::FiberCut(602.0, 2));
  opt.faults.Add(fault::FaultEvent::ControllerCrash(1201.0));
  opt.faults.Add(fault::FaultEvent::ControllerRecover(1500.0));
  opt.faults.Add(fault::FaultEvent::FiberRepair(2103.0, 2));
  auto te = MakeOwan(11);
  const SimResult r = RunSimulation(wan, reqs, *te, opt);
  EXPECT_GT(r.updates_executed, 0);
  EXPECT_GT(r.update_retries, 0);
  EXPECT_DIGEST(r, 0x42ec750a1e961db9);
}

TEST(SimResultDigest, ExecutedUpdateAbortsMidUpdate) {
  const topo::Wan wan = MakeSquare();
  const std::vector<core::Request> reqs = {Req(0, 0, 3, 9000.0, 0.0),
                                           Req(1, 0, 3, 4000.0, 310.0)};
  SimOptions opt;
  opt.execute_updates = true;
  opt.faults.Add(fault::FaultEvent::ControllerCrash(1.0));
  opt.faults.Add(fault::FaultEvent::ControllerRecover(2.0));
  opt.faults.Add(fault::FaultEvent::FiberCut(601.0, 3));
  opt.faults.Add(fault::FaultEvent::FiberRepair(1200.0, 3));
  ToggleScheme te;
  const SimResult r = RunSimulation(wan, reqs, te, opt);
  EXPECT_GE(r.update_aborts, 1);
  EXPECT_DIGEST(r, 0xaafaf1acc53d555a);
}

TEST(SimResultDigest, InvariantViolationsAreReported) {
  const topo::Wan wan = topo::MakeMotivatingExample();
  const std::vector<core::Request> reqs = {Req(0, 0, 1, 9000.0, 0.0),
                                           Req(1, 2, 3, 30000.0, 100.0),
                                           Req(2, 0, 3, 5000.0, 200.0)};
  SimOptions opt;
  opt.max_time_s = 3 * 3600.0;
  opt.faults.Add(fault::FaultEvent::FiberCut(450.0, 0));
  RecklessScheme te;
  const SimResult r = RunSimulation(wan, reqs, te, opt);
  EXPECT_FALSE(r.invariant_violations.empty());
  EXPECT_DIGEST(r, 0xf325bb8fe4e057f1);
}

TEST(SimResultDigest, InputsSubmitWouldRefuse) {
  // Repeated and negative ids, arrivals out of order, a request past the
  // time cap, deadlines, a reconfiguration penalty and Amoeba rejections:
  // the batch simulator takes the vector as it is.
  const topo::Wan wan = topo::MakeInternet2();
  const std::vector<core::Request> reqs = {
      Req(4, 0, 8, 9000.0, 0.0, 1800.0),  Req(4, 1, 7, 3000.0, 0.0),
      Req(-3, 2, 6, 60000.0, 250.0, 900.0), Req(9, 5, 3, 8000.0, 120.0),
      Req(1, 8, 0, 5000.0, 1000.0, 4000.0), Req(2, 3, 5, 7000.0, 700.0),
      Req(7, 6, 1, 2000.0, 9e5)};
  SimOptions opt;
  opt.max_time_s = 6 * 3600.0;
  opt.reconfig_penalty_s = 5.0;
  const net::Graph g =
      wan.default_topology.ToGraph(wan.optical.wavelength_capacity());
  te::AmoebaTe amoeba(g, opt.slot_seconds);
  const SimResult a = RunSimulation(wan, reqs, amoeba, opt);
  int rejected = 0;
  for (const TransferRecord& t : a.transfers) rejected += !t.admitted;
  EXPECT_GT(rejected, 0);
  EXPECT_DIGEST(a, 0x1af6d992479426a7);

  auto te = MakeOwan(31);
  const SimResult o = RunSimulation(wan, reqs, *te, opt);
  EXPECT_GT(o.topology_changes, 0);
  EXPECT_DIGEST(o, 0x604f22c1a441a830);
}

}  // namespace
}  // namespace owan::sim
