// Executed updates under the controller, and crash-mid-update recovery: a
// controller that dies while actuating a reconfiguration restores from its
// checkpoint — write-ahead intent log included — and ends up bit-identical
// to a controller that never crashed. Test names keep the checkpoint
// version each test was first written against.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "core/owan.h"
#include "service/service.h"
#include "topo/topologies.h"

namespace owan::service {
namespace {

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

sim::SimOptions ExecOptions(uint64_t seed = 0, double circuit_fail = 0.0,
                            double route_fail = 0.0) {
  sim::SimOptions o;
  o.execute_updates = true;
  o.actuation.seed = seed;
  o.actuation.circuit_failure_prob = circuit_fail;
  o.actuation.route_failure_prob = route_fail;
  o.actuation.latency_cv = circuit_fail > 0.0 ? 0.4 : 0.0;
  return o;
}

sim::SimOptions CrashAfter(sim::SimOptions o, int wal_records) {
  o.crash_after_wal_records = wal_records;
  return o;
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

// The checkpoint minus the installed-route block and the update counters,
// which only a service that executes updates keeps.
std::string WithoutInstalledRoutes(const std::string& snap) {
  std::istringstream is(snap);
  std::string line, out;
  bool in_block = false;
  while (std::getline(is, line)) {
    if (line.rfind("sim-updates ", 0) == 0) continue;
    if (line.rfind("iroute ", 0) == 0) {
      in_block = true;
      continue;
    }
    if (in_block && line.rfind("path ", 0) == 0) continue;
    in_block = false;
    out += line + "\n";
  }
  return out;
}

// Executed updates with the nominal plant change nothing: the executor's
// realized schedule equals ScheduleConsistent, so every transfer sees the
// exact same slots as the immediate path.
TEST(RecoveryTest, NominalExecutedUpdatesMatchLegacyTicks) {
  topo::Wan wan = topo::MakeInternet2();
  ControllerService legacy(&wan, MakeStatelessOwan(), Passthrough());
  ControllerService exec(&wan, MakeStatelessOwan(), ExecOptions());
  SubmitPair(legacy, wan);
  SubmitPair(exec, wan);
  for (int i = 0; i < 4; ++i) {
    legacy.Step();
    exec.Step();
    EXPECT_TRUE(exec.topology() == legacy.topology()) << "slot " << i;
  }
  EXPECT_GT(exec.ToSimResult().updates_executed, 0);
  EXPECT_EQ(WithoutInstalledRoutes(exec.Checkpoint()), legacy.Checkpoint());
}

TEST(RecoveryTest, IdleCheckpointStaysV2UnderExecutor) {
  topo::Wan wan = topo::MakeInternet2();
  ControllerService c(&wan, MakeStatelessOwan(), ExecOptions());
  SubmitPair(c, wan);
  c.Step();
  ASSERT_FALSE(c.update_parked());
  // No update in flight, so no parked-update section.
  const std::string snap = c.Checkpoint();
  EXPECT_EQ(snap.find("ptopology"), std::string::npos);
  EXPECT_EQ(snap.find("pwal"), std::string::npos);
}

TEST(RecoveryTest, CrashMidUpdateEmitsV3AndRestoresBitIdentical) {
  topo::Wan wan = topo::MakeInternet2();

  // Reference run (no crash) and crashing run step in lockstep with the
  // same seeds; the hook kills the primary a few WAL records into the
  // first slot whose update is big enough.
  ControllerService ref(&wan, MakeStatelessOwan(), ExecOptions(7, 0.2, 0.05));
  ControllerService primary(&wan, MakeStatelessOwan(),
                            CrashAfter(ExecOptions(7, 0.2, 0.05), 5));
  SubmitPair(ref, wan);
  SubmitPair(primary, wan);
  for (int slot = 0; slot < 6 && !primary.update_parked(); ++slot) {
    primary.Step();
    ref.Step();  // completes the slot the primary may have died in
  }
  ASSERT_TRUE(primary.update_parked());
  const std::string snap = primary.Checkpoint();
  EXPECT_NE(snap.find("pwal "), std::string::npos);

  // The standby finishes the interrupted slot during Restore (no crash
  // hook on the standby: it runs the recovery to completion).
  ControllerService standby = ControllerService::Restore(
      &wan, MakeStatelessOwan(), snap, ExecOptions(7, 0.2, 0.05));
  EXPECT_FALSE(standby.update_parked());
  EXPECT_DOUBLE_EQ(standby.now(), ref.now());
  EXPECT_TRUE(standby.topology() == ref.topology());
  EXPECT_EQ(standby.Checkpoint(), ref.Checkpoint());

  // And the futures agree too.
  ref.Run();
  standby.Run();
  EXPECT_EQ(standby.active_transfers(), 0);
  EXPECT_EQ(standby.Checkpoint(), ref.Checkpoint());
}

// Crash at sampled WAL lengths of one update: each restore must converge
// to the same end state. (The controller-level version of the executor's
// every-cut resume test.)
TEST(RecoveryTest, CrashAtManyWalCutsAllRecoverIdentically) {
  topo::Wan wan = topo::MakeInternet2();
  ControllerService ref(&wan, MakeStatelessOwan(), ExecOptions(3, 0.25, 0.1));
  SubmitPair(ref, wan);
  ref.Step();
  const std::string want = ref.Checkpoint();

  // Cuts past the end of the slot's log never fire.
  int cuts = 0;
  for (int cut = 1; cut < 1000; cut += 7) {
    ControllerService primary(&wan, MakeStatelessOwan(),
                              CrashAfter(ExecOptions(3, 0.25, 0.1), cut));
    SubmitPair(primary, wan);
    primary.Step();
    if (!primary.update_parked()) break;
    ++cuts;
    ControllerService standby =
        ControllerService::Restore(&wan, MakeStatelessOwan(),
                                   primary.Checkpoint(),
                                   ExecOptions(3, 0.25, 0.1));
    EXPECT_EQ(standby.Checkpoint(), want) << "cut " << cut;
  }
  EXPECT_GT(cuts, 2);
}

// An in-process caller that survives the "crash" (hook fired but no
// failover happened) finishes the parked slot on its next Step.
TEST(RecoveryTest, PendingUpdateFinishesOnNextTickWithoutRestore) {
  topo::Wan wan = topo::MakeInternet2();
  ControllerService ref(&wan, MakeStatelessOwan(), ExecOptions(3, 0.25, 0.1));
  SubmitPair(ref, wan);
  ref.Step();

  ControllerService c(&wan, MakeStatelessOwan(),
                      CrashAfter(ExecOptions(3, 0.25, 0.1), 4));
  SubmitPair(c, wan);
  c.Step();
  ASSERT_TRUE(c.update_parked());
  EXPECT_DOUBLE_EQ(c.now(), 0.0);  // slot never completed
  c.Step();  // finishes the interrupted slot
  EXPECT_FALSE(c.update_parked());
  EXPECT_DOUBLE_EQ(c.now(), ref.now());
  EXPECT_EQ(c.Checkpoint(), ref.Checkpoint());
}

// A standby restored between slots plans its next update from the
// checkpointed installed routes, so it executes the same updates. (With
// this flaky a plant, planning from no old routes ends elsewhere.)
TEST(RecoveryTest, ExecutingServiceRestoresBetweenSlots) {
  topo::Wan wan = topo::MakeInternet2();
  ControllerService ref(&wan, MakeStatelessOwan(), ExecOptions(7, 0.6, 0.05));
  SubmitPair(ref, wan);
  // A later arrival makes the next slots reconfigure again.
  core::Request late =
      Req(2, wan.SiteByName("SEA"), wan.SiteByName("LAX"), 90000.0);
  late.arrival = 300.0;
  ref.Submit(late);
  ref.Step();
  ControllerService standby = ControllerService::Restore(
      &wan, MakeStatelessOwan(), ref.Checkpoint(), ExecOptions(7, 0.6, 0.05));
  ref.Run();
  standby.Run();
  EXPECT_GT(standby.ToSimResult().updates_executed, 0);
  EXPECT_EQ(standby.Checkpoint(), ref.Checkpoint());
}

TEST(RecoveryTest, V2CheckpointStillRestoresUnderExecutorOptions) {
  topo::Wan wan = topo::MakeInternet2();
  ControllerService legacy(&wan, MakeStatelessOwan(), Passthrough());
  SubmitPair(legacy, wan);
  legacy.Step();
  const std::string snap = legacy.Checkpoint();
  ControllerService restored = ControllerService::Restore(
      &wan, MakeStatelessOwan(), snap, ExecOptions());
  EXPECT_FALSE(restored.update_parked());
  EXPECT_DOUBLE_EQ(restored.now(), legacy.now());
  EXPECT_TRUE(restored.topology() == legacy.topology());
}

// The executor clamps rates to the plant's line rate, not to a 10G
// default: on a 100G plant, executed updates allocate what immediate ones
// do.
TEST(RecoveryTest, ExecutedUpdatesUseThePlantLineRate) {
  topo::WanParams params;
  params.wavelength_gbps = 100.0;
  const topo::Wan wan = topo::MakeInternet2(params);
  ControllerService plain(&wan, MakeStatelessOwan(), sim::SimOptions{});
  ControllerService exec(&wan, MakeStatelessOwan(), ExecOptions());
  SubmitPair(plain, wan);
  SubmitPair(exec, wan);
  plain.Step();
  exec.Step();
  ASSERT_EQ(exec.stats().slot_throughput.size(), 1u);
  EXPECT_DOUBLE_EQ(plain.stats().slot_throughput[0].second, 400.0);
  EXPECT_DOUBLE_EQ(exec.stats().slot_throughput[0].second, 400.0);
}

}  // namespace
}  // namespace owan::service
