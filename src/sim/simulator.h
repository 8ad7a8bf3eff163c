#ifndef OWAN_SIM_SIMULATOR_H_
#define OWAN_SIM_SIMULATOR_H_

#include <string>
#include <vector>

#include "core/te_scheme.h"
#include "core/topology.h"
#include "core/transfer.h"
#include "fault/actuation.h"
#include "fault/fault_event.h"
#include "topo/topologies.h"
#include "update/executor.h"

namespace owan::sim {

struct SimOptions {
  double slot_seconds = 300.0;  // paper: reconfiguration every five minutes
  // Capacity on links whose circuits change is unavailable for this long at
  // the start of the slot (the §5.4 three-to-five-second circuit time).
  // Defaults to 0 because Owan's consistent update scheduling is hitless
  // (Fig. 10b) — raise it to model one-shot updates or slower optics.
  double reconfig_penalty_s = 0.0;
  // Safety cap on simulated time.
  double max_time_s = 72.0 * 3600.0;
  // The unified fault script (§3.4): fiber cuts and repairs, site/ROADM
  // outages, transceiver/regenerator failures, controller crashes. Event
  // timestamps need not align with slot boundaries — an event interrupts
  // the running slot (delivered bytes are pro-rated over the truncated
  // interval) and triggers an immediate recompute rather than waiting for
  // the next boundary. While the controller is crashed the data plane
  // keeps forwarding at the last installed rates (minus whatever physical
  // failures kill), and recompute resumes at kControllerRecover.
  fault::FaultSchedule faults;
  // Post-interval invariant checking (fault::InvariantChecker): violations
  // are collected into SimResult::invariant_violations instead of
  // asserting. Read-only; disable for timing-critical sweeps.
  bool check_invariants = true;
  // Run each slot's reconfiguration through the update execution engine
  // (update::UpdateExecutor) instead of assuming it lands instantly: ops
  // draw latency/failure from `actuation`, retry per `retry`, and the slot
  // keeps whatever topology/routes the plant actually reached. A fault
  // event that truncates the interval mid-update safe-aborts the update
  // (stage-by-stage rollback) before the fault is processed. Off by
  // default — goldens and legacy comparisons are unchanged.
  bool execute_updates = false;
  fault::ActuationModel actuation;
  update::RetryPolicy retry;
  // Test hook for a controller crash in the middle of an executed update:
  // once the update's write-ahead intent log holds this many records the
  // slot parks — clock, transfers and frozen rates keep their pre-update
  // values — and a checkpoint taken then carries the log. The next Step(),
  // or a Restore() of that checkpoint, replays the log and finishes the
  // slot. Negative = never crash.
  int crash_after_wal_records = -1;
};

// Outcome for one transfer after the run.
struct TransferRecord {
  core::Request request;
  bool admitted = true;
  bool completed = false;
  double completed_at = -1.0;       // absolute seconds
  double delivered = 0.0;           // gigabits delivered in total
  double delivered_by_deadline = 0.0;
  // Time spent admitted-but-unallocated (rate 0 while active) — the
  // per-transfer stall caused by congestion or failures.
  double stalled_s = 0.0;

  double CompletionTime() const { return completed_at - request.arrival; }
  bool MetDeadline() const {
    return request.HasDeadline() && completed &&
           completed_at <= request.deadline + 1e-6;
  }
};

struct SimResult {
  std::vector<TransferRecord> transfers;
  double makespan = 0.0;  // time the last transfer finished
  int slots = 0;
  int topology_changes = 0;  // total circuit changes across the run
  // Wall-clock seconds the scheme spent in Compute across all slots — the
  // controller's decision latency, isolated from simulator bookkeeping
  // (Fig. 10d measures exactly this budget).
  double compute_seconds = 0.0;
  // Per-slot (start_time, total allocated Gbps) series — the Fig. 10a
  // throughput-over-time view. Fault interrupts add sub-slot entries.
  std::vector<std::pair<double, double>> slot_throughput;

  // ---- availability metrics (fault runs) ----
  // Events consumed from the schedule (including no-op repeats).
  int fault_events = 0;
  // Gigabits the pre-fault allocation would still have delivered in the
  // interrupted remainder of its slot — the work each fault invalidated.
  double gigabits_lost_to_faults = 0.0;
  // One entry per fault batch that hit a live transfer set: seconds until
  // total allocated rate recovered to its pre-fault level (or the affected
  // transfers drained). Episodes still open when the run ends close at the
  // final simulated time.
  std::vector<double> recovery_seconds;
  double MeanTimeToRecover() const;
  // Violations found by the post-interval InvariantChecker; empty = every
  // interval of the run was consistent.
  std::vector<std::string> invariant_violations;

  // ---- update execution metrics (execute_updates runs) ----
  int updates_executed = 0;   // slots whose reconfiguration ran the engine
  int update_aborts = 0;      // updates that safe-aborted (rolled back)
  int update_retries = 0;     // actuation attempts retried across the run
  int update_forced_ops = 0;  // stall-broken ops across the run
  double update_exec_seconds = 0.0;  // total realized update makespan (sim s)

  // Deadline metrics (only meaningful for deadline workloads).
  double FractionMeetingDeadline() const;
  double FractionBytesByDeadline() const;
};

// Runs the discrete-time flow-based simulation: per slot the scheme sees
// the active transfers and emits allocations (and, for optical-aware
// schemes, a new topology); transfers progress at their allocated rates,
// minus the reconfiguration penalty on links whose circuits changed.
// Faults from `options.faults` interrupt slots as described above. The
// loop is service::ControllerService's, in passthrough mode.
SimResult RunSimulation(const topo::Wan& wan,
                        const std::vector<core::Request>& requests,
                        core::TeScheme& scheme, const SimOptions& options = {});

}  // namespace owan::sim

#endif  // OWAN_SIM_SIMULATOR_H_
