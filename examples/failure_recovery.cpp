// Failure handling (§3.4): a fiber cut tears down the circuits crossing
// it; the controller recomputes the network state around the failure at the
// next slot, and a controller crash is survived via checkpoint/restore.
// The second half drives the unified fault subsystem end to end: a scripted
// incident schedule with sub-slot timestamps, a seeded stochastic
// MTBF/MTTR schedule, and the availability metrics the simulator reports.

#include <cstdio>
#include <memory>

#include "core/owan.h"
#include "fault/fault_generator.h"
#include "fault/schedule_io.h"
#include "service/service.h"
#include "sim/simulator.h"
#include "topo/topologies.h"
#include "util/units.h"

using namespace owan;

namespace {

std::unique_ptr<core::OwanTe> MakeScheme() {
  core::OwanOptions opt;
  opt.anneal.max_iterations = 250;
  // Slot-seeded: scheme decisions depend only on (seed, slot time), so a
  // restored standby agrees with the crashed primary without RNG history.
  opt.slot_seeded = true;
  return std::make_unique<core::OwanTe>(opt);
}

void PrintAvailability(const char* what, const sim::SimResult& res) {
  double stall = 0.0;
  for (const auto& t : res.transfers) stall += t.stalled_s;
  std::printf(
      "%s: %d fault events, %zu recovery episodes (MTTR %.0fs), "
      "%.0f Gb invalidated, %.0fs stalled, %zu invariant violations\n",
      what, res.fault_events, res.recovery_seconds.size(),
      res.MeanTimeToRecover(), res.gigabits_lost_to_faults, stall,
      res.invariant_violations.size());
}

}  // namespace

int main() {
  topo::Wan wan = topo::MakeInternet2();
  service::ServiceOptions svc;
  svc.mode = service::ServiceMode::kPassthrough;
  service::ControllerService controller(&wan, MakeScheme(), svc);

  const int sea = wan.SiteByName("SEA");
  const int nyc = wan.SiteByName("NYC");
  core::Request big;
  big.id = 0;
  big.src = sea;
  big.dst = nyc;
  big.size = util::GB(4000);
  controller.Submit(big);
  controller.Step();
  std::printf("t=%4.0fs  links=%2d units=%2d  (steady state)\n",
              controller.now(), controller.topology().NumLinks(),
              controller.topology().TotalUnits());

  // The plant reports a cut of the SEA-SLC fiber (fiber id 0 in the
  // Internet2 build): circuits re-route over surviving fibers, dark ports
  // re-pair, and the next slot recomputes around the failure.
  controller.ReportFault(fault::FaultEvent::FiberCut(controller.now(), 0));
  std::printf("fiber SEA-SLC cut: topology now %d units\n",
              controller.topology().TotalUnits());

  controller.Step();
  std::printf("t=%4.0fs  links=%2d units=%2d  (recomputed around failure)\n",
              controller.now(), controller.topology().NumLinks(),
              controller.topology().TotalUnits());

  // Controller failover: checkpoint, "crash", restore, keep scheduling.
  // The checkpoint carries the plant failure state, so the standby sees
  // the same degraded plant the primary saw.
  const std::string snapshot = controller.Checkpoint();
  service::ControllerService restored =
      service::ControllerService::Restore(&wan, MakeScheme(), snapshot, svc);
  std::printf(
      "restored controller at t=%.0fs with %d active transfers "
      "(SEA-SLC still cut: %s)\n",
      restored.now(), restored.active_transfers(),
      restored.plant().FiberCut(0) ? "yes" : "no");

  restored.Run();
  for (const sim::TransferRecord& t : restored.ToSimResult().transfers) {
    std::printf("transfer %d %s at t=%.0fs\n", t.request.id,
                t.completed ? "completed" : "STILL PENDING", t.completed_at);
  }

  // ---- Scripted incident in the simulator ----
  // Schedules are plain text (one "<time> <kind> <args>" line each) and
  // carry sub-slot timestamps: the 450s cut interrupts the slot that
  // started at 300s, delivered bytes are pro-rated, and the control loop
  // recomputes immediately instead of waiting for the slot boundary.
  const fault::FaultSchedule scripted = fault::ParseFaultSchedule(
      "450  fiber-cut 0\n"
      "600  controller-crash\n"
      "1500 controller-recover\n"
      "2250 fiber-repair 0\n");
  std::printf("\nscripted incident:\n%s",
              fault::FormatFaultSchedule(scripted).c_str());

  std::vector<core::Request> reqs;
  for (int i = 0; i < 4; ++i) {
    core::Request r;
    r.id = i;
    r.src = (i % 2) ? wan.SiteByName("LAX") : sea;
    r.dst = (i % 2) ? wan.SiteByName("CHI") : nyc;
    r.size = util::GB(1500);
    r.arrival = 300.0 * i;
    reqs.push_back(r);
  }

  sim::SimOptions opt;
  opt.faults = scripted;
  core::OwanTe te({});
  sim::SimResult res = sim::RunSimulation(wan, reqs, te, opt);
  PrintAvailability("scripted run", res);

  // ---- Seeded stochastic faults ----
  // Per-component MTBF/MTTR renewal processes; the same seed always yields
  // the same schedule, so "chaos" runs are replayable bit-for-bit.
  fault::FaultGeneratorOptions fg;
  fg.seed = 7;
  fg.horizon_s = 4.0 * 3600.0;
  fg.fiber = {/*mtbf_s=*/2.0 * 3600.0, /*mttr_s=*/1200.0};
  fg.controller = {/*mtbf_s=*/6.0 * 3600.0, /*mttr_s=*/300.0};
  sim::SimOptions chaos;
  chaos.max_time_s = 8.0 * 3600.0;
  chaos.faults = fault::GenerateFaultSchedule(wan.optical, fg);
  std::printf("\ngenerated %zu stochastic fault events (seed %llu)\n",
              chaos.faults.size(), (unsigned long long)fg.seed);

  core::OwanTe te2({});
  PrintAvailability("stochastic run", sim::RunSimulation(wan, reqs, te2, chaos));
  return 0;
}
