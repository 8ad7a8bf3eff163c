#ifndef OWAN_UPDATE_SCHEDULER_H_
#define OWAN_UPDATE_SCHEDULER_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "update/update_plan.h"

namespace owan::update {

struct ScheduledOp {
  int op_id = -1;
  double start = 0.0;
  double end = 0.0;
  bool forced = false;  // started despite unmet deps (stall breaking)
};

struct Schedule {
  std::vector<ScheduledOp> items;
  double makespan = 0.0;

  const ScheduledOp* Find(int op_id) const;
};

// The wave-staged dependency structure shared by ScheduleConsistent and
// the update executor: the input plan with wave-staging edges added, plus
// the derived sets the ready/gating rules consult. Staging circuit changes
// into waves of at most `wave_size` keeps only a small slice of capacity
// dark at once; draining routes fire with the earliest wave that needs
// them gone.
struct StagedPlan {
  UpdatePlan plan;  // deps augmented with wave-staging edges
  // RemoveRoute ids some RemoveCircuit waits on (they drain live traffic
  // off a circuit about to go dark). All other RemoveRoutes are cleanup.
  std::set<int> draining;
  // transfer_index -> its AddRoute op ids; a cleanup RemoveRoute waits for
  // all of them (make-before-break).
  std::map<int, std::vector<int>> transfer_add_routes;
};

StagedPlan BuildStagedPlan(const UpdatePlan& plan, int wave_size);

// Circuits per wave for consistent updates, planned and executed alike.
inline constexpr int kWaveSize = 4;

// Dionysus deadlock breaking, shared by the scheduler and the executor:
// when no op can start and none is running, the pending op with the fewest
// unmet deps is forced (op-id tie-break). Exception: if that victim still
// waits on an unfinished RemoveRoute, forcing it would push live traffic
// into a dark circuit — descend and force the drain itself first (counted
// as update.forced_route_drains), so a blackhole never opens. `pending`
// and `resolved` are per-op-id masks; returns -1 if nothing is pending.
int PickStallVictim(const UpdatePlan& plan, const std::vector<bool>& pending,
                    const std::vector<bool>& resolved);

// One-shot update: every operation fires at t=0 (the paper's comparison
// point in Fig. 10b). Circuits go dark for their whole duration while
// routes already point at them.
Schedule ScheduleOneShot(const UpdatePlan& plan);

// Dionysus-style consistent scheduling extended with circuit nodes:
//   * draining RemoveRoute ops run just before their circuit's wave,
//   * a RemoveCircuit starts once the routes over it are gone,
//   * an AddCircuit starts once its router ports are free (each endpoint
//     port is freed by a RemoveCircuit completion),
//   * AddRoute ops wait for all their new circuits to light up,
//   * cleanup RemoveRoute ops (pure route swaps) run after the transfer's
//     new routes are installed (make-before-break).
//
// Circuit changes are additionally staged into waves of at most `wave_size`
// circuits: only a small slice of capacity is ever dark at once, so live
// traffic keeps flowing on the rest (this is what makes the update hitless
// in Fig. 10b, at the cost of a longer update makespan).
// If the dependency graph stalls (cyclic resource waits), the op with the
// fewest unmet dependencies is forced, mirroring Dionysus' deadlock
// breaking.
Schedule ScheduleConsistent(const UpdatePlan& plan,
                            int wave_size = kWaveSize);

// Total throughput (Gbps) over time while the schedule executes: transfers
// keep sending on every installed-and-lit path, redistributing up to the
// capacity that is currently lit. Samples are emitted at every event edge
// plus a final steady-state sample.
//
// With `adaptive_reroute` (the consistent scheduler's behaviour: the
// controller keeps migrating rates Dionysus-style while the update runs),
// a transfer whose paths are being drained is temporarily detoured over
// whatever lit capacity remains. A one-shot update pushes all state at once
// and walks away, so its traffic is stuck on whatever the new routes say.
struct TraceSample {
  double t = 0.0;
  double gbps = 0.0;
};

// Replays a schedule's event edges against the lit-capacity model (removed
// circuits dark from teardown start, added circuits lit at completion,
// route ops effective at completion) and runs the mid-update invariant
// check at every edge: no installed positive-rate route may cross a dark
// link. Capacity overshoot is not flagged here — a precomputed schedule
// relies on the data plane rate-adapting (TraceThroughput); the executor,
// which clamps rates itself, checks overshoot too. Returns all violations
// across all stages (empty = clean).
std::vector<std::string> ValidateScheduleStages(
    const core::Topology& from, double theta, const UpdatePlan& plan,
    const Schedule& schedule,
    const std::vector<core::TransferAllocation>& old_routes,
    const std::vector<core::TransferAllocation>& new_routes);

std::vector<TraceSample> TraceThroughput(
    const core::Topology& from, double theta, const UpdatePlan& plan,
    const Schedule& schedule,
    const std::vector<core::TransferAllocation>& old_routes,
    const std::vector<core::TransferAllocation>& new_routes,
    bool adaptive_reroute = false);

}  // namespace owan::update

#endif  // OWAN_UPDATE_SCHEDULER_H_
