// The controller (§3.1) driven slot by slot: Submit, Step, live plant
// reports and failover through Checkpoint/Restore (§3.4). A standby
// restored from a mid-incident checkpoint must reproduce the primary's
// remaining schedule. Test names keep the checkpoint version each test was
// first written against; all of them run on the one current format.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/owan.h"
#include "fault/fault_event.h"
#include "service/service.h"
#include "testkit/oracles.h"
#include "topo/topologies.h"

namespace owan::service {
namespace {

using fault::FaultEvent;

std::unique_ptr<core::OwanTe> MakeOwan(int iters = 150) {
  core::OwanOptions opt;
  opt.anneal.max_iterations = iters;
  return std::make_unique<core::OwanTe>(opt);
}

// Slot-seeded Owan: scheme decisions are a pure function of (seed, now),
// so a replacement controller needs no RNG history to agree with the
// crashed primary.
std::unique_ptr<core::OwanTe> MakeStatelessOwan() {
  core::OwanOptions opt;
  opt.seed = 11;
  opt.anneal.max_iterations = 200;
  opt.slot_seeded = true;
  return std::make_unique<core::OwanTe>(opt);
}

ServiceOptions Passthrough() {
  ServiceOptions opt;
  opt.mode = ServiceMode::kPassthrough;
  return opt;
}

core::Request Req(int id, int src, int dst, double size) {
  core::Request r;
  r.id = id;
  r.src = src;
  r.dst = dst;
  r.size = size;
  return r;
}

void SubmitPair(ControllerService& c, const topo::Wan& wan) {
  c.Submit(Req(0, wan.SiteByName("SEA"), wan.SiteByName("NYC"), 90000.0));
  c.Submit(Req(1, wan.SiteByName("LAX"), wan.SiteByName("CHI"), 60000.0));
}

// ---------------------------------------------------------------------------
// The slot loop
// ---------------------------------------------------------------------------

TEST(ControllerTest, SubmitValidation) {
  topo::Wan wan = topo::MakeMotivatingExample();
  ControllerService c(&wan, MakeOwan(), Passthrough());
  EXPECT_THROW(c.Submit(Req(0, 0, 0, 100.0)), std::invalid_argument);
  EXPECT_THROW(c.Submit(Req(0, 0, 1, -5.0)), std::invalid_argument);
  c.Submit(Req(0, 0, 1, 100.0));
  c.Submit(Req(1, 0, 1, 100.0));
  c.Step();
  EXPECT_EQ(c.ingested(), 2u);
}

TEST(ControllerTest, TickAdvancesClockAndDelivers) {
  topo::Wan wan = topo::MakeMotivatingExample();
  ControllerService c(&wan, MakeOwan(), Passthrough());
  c.Submit(Req(0, 0, 1, 1500.0));
  EXPECT_DOUBLE_EQ(c.now(), 0.0);
  c.Step();
  EXPECT_DOUBLE_EQ(c.now(), 300.0);
  EXPECT_EQ(c.active_transfers(), 0);
  const sim::TransferRecord t = c.ToSimResult().transfers.at(0);
  EXPECT_TRUE(t.completed);
  EXPECT_GT(t.completed_at, 0.0);
}

TEST(ControllerTest, TopologyEvolvesUnderOwan) {
  topo::Wan wan = topo::MakeMotivatingExample();
  ControllerService c(&wan, MakeOwan(250), Passthrough());
  // Heavy parallel demand on 0->1 and 2->3 pushes Owan to plan C.
  c.Submit(Req(0, 0, 1, 50000.0));
  c.Submit(Req(1, 2, 3, 50000.0));
  c.Step();
  EXPECT_EQ(c.topology().Units(0, 1), 2);
  EXPECT_EQ(c.topology().Units(2, 3), 2);
}

TEST(ControllerTest, AllocationsExposed) {
  topo::Wan wan = topo::MakeMotivatingExample();
  ControllerService c(&wan, MakeOwan(), Passthrough());
  c.Submit(Req(0, 0, 1, 3000.0));
  c.Step();
  ASSERT_EQ(c.stats().slot_throughput.size(), 1u);
  EXPECT_GT(c.stats().slot_throughput[0].second, 0.0);
}

TEST(ControllerTest, CheckpointRoundTrip) {
  topo::Wan wan = topo::MakeMotivatingExample();
  ControllerService c(&wan, MakeOwan(250), Passthrough());
  c.Submit(Req(0, 0, 1, 90000.0));
  c.Submit(Req(1, 2, 3, 90000.0));
  c.Step();
  const std::string snap = c.Checkpoint();

  ControllerService restored =
      ControllerService::Restore(&wan, MakeOwan(250), snap, Passthrough());
  EXPECT_DOUBLE_EQ(restored.now(), c.now());
  EXPECT_TRUE(restored.topology() == c.topology());
  EXPECT_EQ(restored.active_transfers(), c.active_transfers());
  EXPECT_EQ(restored.Checkpoint(), snap);
  // The restored controller keeps working.
  restored.Step();
  EXPECT_DOUBLE_EQ(restored.now(), c.now() + 300.0);
}

TEST(ControllerTest, RestoreRejectsGarbage) {
  topo::Wan wan = topo::MakeMotivatingExample();
  EXPECT_THROW(ControllerService::Restore(&wan, MakeOwan(), "not a checkpoint",
                                          Passthrough()),
               std::invalid_argument);
}

TEST(ControllerTest, CheckpointSurvivesNewRequestsAfterRestore) {
  topo::Wan wan = topo::MakeMotivatingExample();
  ControllerService c(&wan, MakeOwan(), Passthrough());
  c.Submit(Req(0, 0, 1, 3000.0));
  const std::string snap = c.Checkpoint();
  ControllerService restored =
      ControllerService::Restore(&wan, MakeOwan(), snap, Passthrough());
  // The queued request survives the checkpoint; new ones join it.
  restored.Submit(Req(1, 2, 3, 100.0));
  restored.Run();
  EXPECT_EQ(restored.stats().requests, 2u);
  EXPECT_EQ(restored.stats().completed, 2u);
}

TEST(ControllerTest, FiberFailureReroutesCircuitsWherePossible) {
  topo::Wan wan = topo::MakeMotivatingExample();
  ControllerService c(&wan, MakeOwan(250), Passthrough());
  c.Submit(Req(0, 0, 1, 50000.0));
  const int before = c.topology().TotalUnits();
  // Cutting the 0-1 fiber alone is survivable: the 0-1 circuit re-routes
  // over 0-2-3-1 on a free wavelength, so no units are lost.
  c.ReportFault(FaultEvent::FiberCut(0.0, 0));
  EXPECT_EQ(c.topology().TotalUnits(), before);
  // Cutting 0-2 as well isolates router 0 in the optical plant; its units
  // must drop out of the topology.
  c.ReportFault(FaultEvent::FiberCut(0.0, 1));
  EXPECT_LT(c.topology().TotalUnits(), before);
  EXPECT_EQ(c.topology().PortsUsed(0), 0);
}

TEST(ControllerTest, ProgressContinuesAfterFiberFailure) {
  topo::Wan wan = topo::MakeInternet2();
  ControllerService c(&wan, MakeOwan(250), Passthrough());
  c.Submit(Req(0, wan.SiteByName("SEA"), wan.SiteByName("NYC"), 3000.0));
  c.ReportFault(FaultEvent::FiberCut(0.0, 0));  // SEA-SLC
  c.Step();
  EXPECT_GT(c.ToSimResult().transfers.at(0).delivered, 0.0);
}

TEST(ControllerTest, NullSchemeRejected) {
  topo::Wan wan = topo::MakeMotivatingExample();
  EXPECT_THROW(ControllerService(&wan, nullptr), std::invalid_argument);
}

TEST(ControllerTest, MultipleTicksDrainQueue) {
  topo::Wan wan = topo::MakeMotivatingExample();
  ControllerService c(&wan, MakeOwan(), Passthrough());
  c.Submit(Req(0, 0, 1, 9000.0));
  int guard = 0;
  while (c.Step() && guard++ < 50) {
  }
  EXPECT_EQ(c.active_transfers(), 0);
  EXPECT_EQ(c.stats().completed, 1u);
  EXPECT_LT(guard, 50);
}

// ---------------------------------------------------------------------------
// Failover under failures
// ---------------------------------------------------------------------------

TEST(FailoverTest, MidIncidentRestoreReproducesPrimaryOutcomes) {
  topo::Wan wan = topo::MakeInternet2();
  ControllerService primary(&wan, MakeStatelessOwan(), Passthrough());
  SubmitPair(primary, wan);
  primary.Step();
  primary.ReportFault(FaultEvent::FiberCut(primary.now(), 0));  // SEA-SLC
  primary.Step();

  // Primary crashes here; the standby restores from its last checkpoint.
  const std::string snap = primary.Checkpoint();
  ControllerService standby = ControllerService::Restore(
      &wan, MakeStatelessOwan(), snap, Passthrough());
  EXPECT_DOUBLE_EQ(standby.now(), primary.now());
  EXPECT_TRUE(standby.plant().FiberCut(0));
  EXPECT_TRUE(standby.topology() == primary.topology());

  primary.Run();
  standby.Run();
  EXPECT_EQ(standby.active_transfers(), 0);
  EXPECT_EQ(standby.stats().completed, 2u);
  EXPECT_EQ(standby.Checkpoint(), primary.Checkpoint());
  EXPECT_EQ(standby.Fingerprint(), primary.Fingerprint());
}

TEST(FailoverTest, CheckpointV2RoundTripsPlantFailureState) {
  topo::Wan wan = topo::MakeInternet2();
  const net::NodeId slc = wan.SiteByName("SLC");
  const net::NodeId kan = wan.SiteByName("KAN");
  ControllerService c(&wan, MakeStatelessOwan(), Passthrough());
  c.ReportFault(FaultEvent::FiberCut(0.0, 3));                 // LAX-HOU
  c.ReportFault(FaultEvent::TransceiverFail(0.0, kan, 1, 2));  // 1 port, 2 regens
  c.ReportFault(FaultEvent::SiteFail(0.0, slc));

  const std::string snap = c.Checkpoint();
  ControllerService r = ControllerService::Restore(&wan, MakeStatelessOwan(),
                                                   snap, Passthrough());
  EXPECT_TRUE(r.plant().FiberCut(3));
  EXPECT_TRUE(r.plant().SiteFailed(slc));
  // SEA-SLC is merely dark under the SLC outage, not cut: a checkpoint
  // that recorded it as cut would leave it dead after the site repair.
  EXPECT_TRUE(r.plant().FiberFailed(0));
  EXPECT_FALSE(r.plant().FiberCut(0));
  EXPECT_EQ(r.plant().FailedPorts(kan), 1);
  EXPECT_EQ(r.plant().FailedRegens(kan), 2);
  EXPECT_TRUE(r.topology() == c.topology());
}

TEST(FailoverTest, FiberRepairRestoresCapacityThroughNextTick) {
  topo::Wan wan = topo::MakeMotivatingExample();
  ControllerService c(&wan, MakeStatelessOwan(), Passthrough());
  c.Submit(Req(0, 0, 1, 50000.0));
  const int before = c.topology().TotalUnits();
  c.ReportFault(FaultEvent::FiberCut(0.0, 0));  // 0-1
  c.ReportFault(FaultEvent::FiberCut(0.0, 1));  // 0-2: router 0 isolated
  EXPECT_LT(c.topology().TotalUnits(), before);
  EXPECT_EQ(c.topology().PortsUsed(0), 0);

  // The plant hook is churn-minimizing: router 0's freed ports were
  // already re-paired among the survivors, so the repair alone cannot
  // claw them back...
  c.ReportFault(FaultEvent::FiberRepair(0.0, 0));
  c.ReportFault(FaultEvent::FiberRepair(0.0, 1));
  EXPECT_FALSE(c.plant().FiberFailed(0));
  EXPECT_FALSE(c.plant().FiberFailed(1));
  EXPECT_TRUE(c.plant().CheckInvariants());

  // ...but the next TE slot rewires toward the pending 0->1 demand and
  // the transfer flows again.
  c.Step();
  EXPECT_GT(c.topology().PortsUsed(0), 0);
  EXPECT_GT(c.ToSimResult().transfers.at(0).delivered, 0.0);
}

TEST(FailoverTest, RepeatedReportsAreNoOps) {
  topo::Wan wan = topo::MakeInternet2();
  ControllerService c(&wan, MakeStatelessOwan(), Passthrough());
  c.ReportFault(FaultEvent::FiberCut(0.0, 0));
  const core::Topology after_first = c.topology();
  c.ReportFault(FaultEvent::FiberCut(0.0, 0));     // stale duplicate report
  EXPECT_TRUE(c.topology() == after_first);
  c.ReportFault(FaultEvent::FiberRepair(0.0, 5));  // repair of a live fiber
  EXPECT_TRUE(c.topology() == after_first);
  c.ReportFault(FaultEvent::FiberRepair(0.0, 0));
  c.ReportFault(FaultEvent::FiberRepair(0.0, 0));  // double repair
  EXPECT_TRUE(c.plant().CheckInvariants());
  EXPECT_FALSE(c.plant().FiberFailed(0));
  // Controller lifecycle events come from the fault schedule, not reports.
  EXPECT_THROW(c.ReportFault(FaultEvent::ControllerCrash(0.0)),
               std::invalid_argument);
}

// A checkpoint taken while a scheduled cut is in force resumes at the
// schedule's cursor: the standby applies the repair exactly when the
// uninterrupted run does.
TEST(FailoverTest, CheckpointMidScheduleResumesAtFaultCursor) {
  topo::Wan wan = topo::MakeInternet2();
  sim::SimOptions opt;
  opt.faults.Add(FaultEvent::FiberCut(450.0, 0));
  opt.faults.Add(FaultEvent::FiberRepair(1350.0, 0));

  ControllerService full(&wan, MakeStatelessOwan(), opt);
  SubmitPair(full, wan);
  full.Run();

  ControllerService primary(&wan, MakeStatelessOwan(), opt);
  SubmitPair(primary, wan);
  while (primary.now() < 900.0) primary.Step();
  ASSERT_LT(primary.now(), 1350.0);
  ASSERT_TRUE(primary.plant().FiberCut(0));
  const std::string snap = primary.Checkpoint();
  ControllerService standby =
      ControllerService::Restore(&wan, MakeStatelessOwan(), snap, opt);
  EXPECT_TRUE(standby.plant().FiberCut(0));
  EXPECT_EQ(standby.Checkpoint(), snap);
  standby.Run();

  EXPECT_FALSE(standby.plant().FiberFailed(0));
  EXPECT_EQ(standby.stats().completed, 2u);
  EXPECT_EQ(standby.Checkpoint(), full.Checkpoint());
  EXPECT_EQ(standby.Fingerprint(), full.Fingerprint());
  // The run-level fault and recovery metrics carry across the restore too.
  std::string why;
  EXPECT_TRUE(testkit::SameSimResult(standby.ToSimResult(), full.ToSimResult(),
                                     &why))
      << why;
}

// ---------------------------------------------------------------------------
// Span degradation survives failover
// ---------------------------------------------------------------------------

// A - B - C line with theta 200 and QoT on: the 1200 km B-C leg grades
// 150G clean and 50G under 60 dB of extra span attenuation.
topo::Wan MakeQotLineWan() {
  std::vector<optical::SiteInfo> sites = {{"A", 2, 0}, {"B", 2, 2},
                                          {"C", 2, 0}};
  optical::OpticalNetwork on(std::move(sites), 2000.0, 200.0);
  optical::QotOptions q;
  q.enabled = true;
  on.set_qot(q);
  on.AddFiber(0, 1, 400.0, 4);
  on.AddFiber(1, 2, 1200.0, 4);
  core::Topology topo(3);
  topo.AddUnits(0, 1, 1);
  topo.AddUnits(1, 2, 1);
  return topo::Wan{"qotline", std::move(on), std::move(topo),
                   {"A", "B", "C"}};
}

TEST(QotCheckpointTest, DegradedPlantCheckpointsAsV5AndRoundTrips) {
  topo::Wan wan = MakeQotLineWan();
  ControllerService c(&wan, MakeStatelessOwan(), Passthrough());
  c.Submit(Req(0, 1, 2, 90000.0));
  c.Step();
  c.ReportFault(FaultEvent::SpanDegrade(c.now(), 1, 60.0));
  c.Step();

  const std::string snap = c.Checkpoint();
  EXPECT_NE(snap.find("fiber-degraded 1 60"), std::string::npos);

  ControllerService r = ControllerService::Restore(&wan, MakeStatelessOwan(),
                                                   snap, Passthrough());
  EXPECT_DOUBLE_EQ(r.plant().FiberDegradationDb(1), 60.0);
  EXPECT_TRUE(r.topology() == c.topology());
  EXPECT_EQ(r.Checkpoint(), snap);

  // Both controllers run the rest of the incident identically.
  c.Run();
  r.Run();
  EXPECT_EQ(r.stats().completed, 1u);
  EXPECT_EQ(r.Checkpoint(), c.Checkpoint());
}

TEST(QotCheckpointTest, UndegradedQotPlantKeepsThePinnedV2Header) {
  topo::Wan wan = MakeQotLineWan();
  ControllerService c(&wan, MakeStatelessOwan(), Passthrough());
  c.Submit(Req(0, 0, 2, 9000.0));
  c.Step();
  EXPECT_EQ(c.Checkpoint().find("fiber-degraded"), std::string::npos);

  // Degrade then repair: the level is gone, and no fiber-degraded line
  // lingers.
  c.ReportFault(FaultEvent::SpanDegrade(c.now(), 1, 12.5));
  EXPECT_NE(c.Checkpoint().find("fiber-degraded 1 12.5"), std::string::npos);
  c.ReportFault(FaultEvent::SpanRepair(c.now(), 1));
  EXPECT_EQ(c.Checkpoint().find("fiber-degraded"), std::string::npos);
}

TEST(QotCheckpointTest, LegacyPlantDegradationLevelSurvivesRestore) {
  // On a QoT-off plant the level changes nothing operationally, but it is
  // still plant state: a standby must not silently forget it (a later
  // QoT-enabled analysis of the checkpoint would see different physics).
  topo::Wan wan = topo::MakeMotivatingExample();
  ControllerService c(&wan, MakeStatelessOwan(), Passthrough());
  c.Submit(Req(0, 0, 1, 9000.0));
  c.Step();
  c.ReportFault(FaultEvent::SpanDegrade(c.now(), 2, 7.25));
  const std::string snap = c.Checkpoint();

  ControllerService r = ControllerService::Restore(&wan, MakeStatelessOwan(),
                                                   snap, Passthrough());
  EXPECT_DOUBLE_EQ(r.plant().FiberDegradationDb(2), 7.25);
  EXPECT_TRUE(r.topology() == c.topology());
}

}  // namespace
}  // namespace owan::service
