#ifndef OWAN_UPDATE_INTENT_LOG_H_
#define OWAN_UPDATE_INTENT_LOG_H_

#include <string>
#include <vector>

namespace owan::update {

// Write-ahead intent log of an update execution. The executor appends a
// record *before* acting on each decision; replaying a prefix of the log
// through the same state-transition code reconstructs the exact mid-update
// state, so a controller crash between any two records recovers to a
// consistent plant and deterministically finishes the update (a
// service::ControllerService checkpoint taken while an update is parked
// carries the log).
//
// Attempt outcomes are not logged: they are pure functions of
// (actuation seed, op, attempt), so kAttemptStart is enough to re-derive
// the failure/latency draw on replay. Completion records exist so a replay
// can apply plant effects without simulating time, and as an audit trail.
enum class IntentKind {
  kAttemptStart,  // op attempt starts at t (forward phase)
  kOpDone,        // op completed at t; its plant effect applied
  kOpFailed,      // op permanently failed at t (retries exhausted)
  kOpCancelled,   // op cancelled at t (plan repair)
  kForced,        // op forced past unmet deps at t (stall breaking)
  kStage,         // stage boundary checked at t
  kAbortBegin,    // safe-abort started at t; rollback follows
  kUndoStart,     // rollback undo of op, given attempt, starts at t
  kUndoDone,      // rollback undo of op completed at t
  kCommit,        // plan converged at t (terminal)
  kAbortDone,     // rollback finished at t, plant == pre-update (terminal)
};

std::string ToString(IntentKind k);

struct IntentRecord {
  IntentKind kind = IntentKind::kAttemptStart;
  int op = -1;
  int attempt = 0;
  double t = 0.0;

  bool operator==(const IntentRecord&) const = default;
};

struct IntentLog {
  std::vector<IntentRecord> records;

  bool operator==(const IntentLog&) const = default;

  // One record per line, doubles at max_digits10 (exact round-trip).
  std::string Serialize() const;
  // Inverse of Serialize; throws std::runtime_error on a corrupt line.
  static IntentLog Parse(const std::string& text);

  static std::string RecordToString(const IntentRecord& r);
  static IntentRecord RecordFromString(const std::string& line);

  // Test-only fault injection (owan_fuzz --inject-bug wal): Serialize
  // silently drops every Nth record, modelling a WAL writer that loses
  // entries. 0 disables. Process-global; tests must reset it.
  static void TestOnlySetDropEveryNth(int n);
};

}  // namespace owan::update

#endif  // OWAN_UPDATE_INTENT_LOG_H_
