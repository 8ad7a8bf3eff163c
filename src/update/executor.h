#ifndef OWAN_UPDATE_EXECUTOR_H_
#define OWAN_UPDATE_EXECUTOR_H_

#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/topology.h"
#include "core/transfer.h"
#include "fault/actuation.h"
#include "update/intent_log.h"
#include "update/scheduler.h"
#include "update/update_plan.h"

namespace owan::update {

struct ExecutorOptions {
  // Default-constructed model = nominal plant: every op succeeds in exactly
  // its planned duration and the executor reproduces ScheduleConsistent
  // bit-for-bit (same makespan, same op timeline).
  fault::ActuationModel actuation;
  // Wavelength capacity (Gbps) for mid-update rate clamping + stage checks.
  double theta = 10.0;
};

struct ExecutorInput {
  core::Topology from;
  UpdatePlan plan;
  // Routes indexed exactly as the plan's route ops index them.
  std::vector<core::TransferAllocation> old_routes;
  std::vector<core::TransferAllocation> new_routes;
  // Per-site router ports physically unoccupied when the update starts
  // (plant usable ports minus what `from` consumes). Empty = planner
  // semantics: the port ledger assumes every port is busy and stalls are
  // always broken by forcing, which keeps the executor bit-identical to
  // ScheduleConsistent. When provided, a stalled AddCircuit whose ports
  // can never materialize — the teardowns that would free them failed
  // permanently and the site has no physical spares left — is cancelled
  // (plan repair) instead of forced, so the realized topology never
  // overshoots the plant's port budget. Nominal runs are unaffected: a
  // feasible target always leaves enough spares for the forced ops.
  std::vector<int> spare_ports;
};

enum class ExecOutcome { kConverged, kAborted };

struct ExecStats {
  int attempts = 0;
  int retries = 0;
  int timeouts = 0;
  int stragglers = 0;
  int forced_ops = 0;
  int failed_ops = 0;       // permanent (retries exhausted)
  int cancelled_ops = 0;    // plan repair (not abort cleanup)
  int alternate_circuits = 0;
  int kept_old_routes = 0;  // cleanup removes cancelled to preserve traffic
  int stage_checks = 0;
  int rollback_ops = 0;

  bool operator==(const ExecStats&) const = default;
};

struct ExecResult {
  ExecOutcome outcome = ExecOutcome::kConverged;
  double makespan = 0.0;  // realized convergence (or abort-complete) time
  // The plant state the run ended on. Converged: the target topology as
  // actually reached (a stuck teardown or a dead circuit shows up here)
  // with the routes that survive, rates clamped to lit capacity. Aborted:
  // exactly the pre-update (from, old_routes) pair.
  core::Topology final_topology;
  std::vector<core::TransferAllocation> final_routes;
  Schedule schedule;  // realized timeline of every op that ran
  ExecStats stats;
  std::vector<std::string> invariant_violations;
  IntentLog log;
};

// Event-driven execution of an UpdatePlan against the simulated plant: the
// dependency-aware state machine behind §4's consistent updates once
// actuations can be slow, straggle, or fail.
//
//   * Ready ops start under exactly ScheduleConsistent's gating rules
//     (wave staging, draining routes, make-before-break cleanup, per-site
//     port ledger, Dionysus stall breaking via PickStallVictim).
//   * Each attempt draws (latency, failure) from the seeded actuation
//     model; timeouts and failures retry with bounded exponential backoff
//     (the retry constants at the top of executor.cc).
//   * Permanent failures trigger plan repair: a failed circuit bring-up
//     falls back to one alternate circuit (fresh op, fresh substream); a
//     failed route removal is drained by rate-limiting it to zero; a
//     cleanup remove whose replacement routes carry nothing is cancelled
//     so the transfer keeps its old path.
//   * If a live transfer would still end with zero capacity — or too many
//     ops fail, or RequestAbort is called — the run safe-aborts: completed
//     ops are undone in reverse completion order (which preserves
//     make-before-break automatically), with unlimited retries, until the
//     plant is bit-identical to (from, old_routes).
//   * Every stage boundary recomputes clamped rates and runs
//     fault::InvariantChecker::CheckUpdateStage.
//
// Every decision is appended to a write-ahead IntentLog before it takes
// effect; Replay() of any log prefix through the same transition code
// reconstructs the exact mid-update state, so a crash between any two
// records resumes bit-identically to the uninterrupted run.
class UpdateExecutor {
 public:
  UpdateExecutor(ExecutorInput input, ExecutorOptions options);

  // Crash recovery: applies a previously persisted log prefix. Must be
  // called before any Step().
  void Replay(const IntentLog& log);

  // Advances by one decision or event batch. Returns false once the run
  // is terminal.
  bool Step();
  // Processes every event with time <= t_limit, stopping early once the
  // intent log holds `max_log_records` records (a controller crash between
  // two steps); returns done().
  bool StepUntil(double t_limit,
                 size_t max_log_records = std::numeric_limits<size_t>::max());
  bool done() const { return terminal_; }
  double now() const { return now_; }
  const IntentLog& log() const { return log_; }
  // Ask for a safe-abort (e.g. the physical plant changed under the
  // update); takes effect at the next event boundary.
  void RequestAbort() { abort_requested_ = true; }

  // Runs to completion if not already terminal, then builds the result.
  ExecResult Finish();

  // One-call convenience: construct, run, finish.
  static ExecResult ExecutePlan(ExecutorInput input,
                                const ExecutorOptions& options);

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  enum class OpState {
    kPending,
    kRunning,
    kBackoff,
    kDone,
    kFailed,
    kCancelled
  };

  struct OpRun {
    OpState state = OpState::kPending;
    int attempts = 0;  // attempts started
    double first_start = -1.0;
    double resolve_time = -1.0;
    double event_time = std::numeric_limits<double>::infinity();
    fault::ActuationSample sample;  // current attempt's draw
    bool timed_out = false;         // current attempt exceeds its timeout
    double attempt_end = 0.0;
    bool forced = false;
    bool alternate = false;        // spawned replacement AddCircuit
    bool spawned_alternate = false;
    bool holds_ports = false;      // AddCircuit currently owns its two ports
  };

  bool resolved(int op) const {
    const OpState s = ops_[static_cast<size_t>(op)].state;
    return s == OpState::kDone || s == OpState::kFailed ||
           s == OpState::kCancelled;
  }
  bool IsCircuitOp(const UpdateOp& op) const {
    return op.type == OpType::kAddCircuit || op.type == OpType::kRemoveCircuit;
  }

  // ---- live-only decision points (append records, then apply) ----
  bool StepOnce(double t_limit);
  void StartReady();
  void StartOp(int op);
  void StallBreak();
  void EmitStage();
  void ProcessEventsAt(double t);
  void ProcessAttemptEnd(int op);
  void EvaluateCompletion();
  void BeginAbort();
  void StartUndo(double t);
  void ProcessUndoEnd();
  void FinishAbort();

  // ---- state transitions shared by live execution and Replay ----
  void ApplyForced(int op, double t);
  void ApplyAttemptStart(int op, int attempt, double t);
  void ApplyOpDone(int op, double t);
  void ApplyOpFailed(int op, double t);
  void ApplyOpCancelled(int op, double t);
  void ApplyStage(double t);
  void ApplyAbortBegin(double t);
  void ApplyUndoStart(int op, int attempt, double t);
  void ApplyUndoDone(int op, double t);
  void ApplyCommit(double t);
  void ApplyAbortDone(double t);
  void AccountAttemptFailure(int op);
  void AccountUndoFailure();

  void SpawnAlternate(int orig);
  void ReleaseCircuitPorts(net::NodeId u, net::NodeId v);
  void RecomputeEffectiveRates();
  bool CleanupGateOpen(const UpdateOp& op, bool* cancel) const;
  bool DepsResolved(const UpdateOp& op) const;
  bool PortsAvailable(const UpdateOp& op) const;
  bool AddCircuitPortsHopeless(const UpdateOp& op) const;
  bool ShouldAbort() const;
  std::vector<core::TransferAllocation> InstalledAllocations() const;
  double NextEventTime() const;

  ExecutorOptions options_;
  core::Topology from_;
  std::vector<core::TransferAllocation> old_routes_, new_routes_;
  StagedPlan staged_;  // staged_.plan.ops grows when alternates spawn
  std::vector<OpRun> ops_;

  core::Topology lit_;                  // currently lit units per link
  std::map<net::NodeId, int> free_ports_;
  std::vector<int> spare_ports_;             // physical spares (may be empty)
  std::map<net::NodeId, int> borrowed_ports_;  // spares taken by forced adds
  std::vector<std::vector<bool>> old_installed_, new_installed_;
  std::vector<std::vector<bool>> old_force_zero_;  // failed removes, drained
  std::vector<std::vector<double>> eff_old_, eff_new_;  // clamped rates
  std::vector<int> completion_order_;

  double now_ = 0.0;
  int unresolved_ = 0;
  bool dirty_ = false;  // plant/route state changed since last stage check
  bool terminal_ = false;
  bool abort_requested_ = false;
  bool aborting_ = false;
  ExecOutcome outcome_ = ExecOutcome::kConverged;

  // Rollback cursor (valid while aborting_).
  std::vector<int> undo_queue_;
  size_t undo_pos_ = 0;
  int undo_attempt_ = 0;
  bool undo_running_ = false;
  double undo_event_ = std::numeric_limits<double>::infinity();
  fault::ActuationSample undo_sample_;
  bool undo_timed_out_ = false;

  ExecStats stats_;
  std::vector<std::string> violations_;
  IntentLog log_;
};

}  // namespace owan::update

#endif  // OWAN_UPDATE_EXECUTOR_H_
