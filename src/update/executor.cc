#include "update/executor.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "fault/invariant_checker.h"
#include "obs/obs.h"

namespace owan::update {

namespace {

constexpr double kEps = 1e-9;

// Bounded exponential-backoff retries for actuation attempts. An attempt
// that outlasts kTimeoutFactor times its op's nominal duration counts as
// failed; a forward op gets kMaxAttempts attempts, a rollback undo retries
// until it lands.
constexpr int kMaxAttempts = 3;
constexpr double kTimeoutFactor = 4.0;
constexpr double kBackoffBaseS = 0.5;  // wait before attempt 2
constexpr double kBackoffFactor = 2.0;  // multiplier per further attempt
constexpr double kBackoffMaxS = 30.0;

// Wait after `attempt` attempts have failed.
double BackoffAfter(int attempt) {
  double b = kBackoffBaseS;
  for (int i = 1; i < attempt; ++i) b *= kBackoffFactor;
  return std::min(b, kBackoffMaxS);
}

using LinkKey = std::pair<net::NodeId, net::NodeId>;

LinkKey Key(net::NodeId a, net::NodeId b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

}  // namespace

UpdateExecutor::UpdateExecutor(ExecutorInput input, ExecutorOptions options)
    : options_(options),
      from_(std::move(input.from)),
      old_routes_(std::move(input.old_routes)),
      new_routes_(std::move(input.new_routes)),
      staged_(BuildStagedPlan(input.plan, kWaveSize)),
      lit_(from_),
      spare_ports_(std::move(input.spare_ports)) {
  const size_t n = staged_.plan.ops.size();
  ops_.resize(n);
  unresolved_ = static_cast<int>(n);
  old_installed_.resize(old_routes_.size());
  old_force_zero_.resize(old_routes_.size());
  for (size_t ti = 0; ti < old_routes_.size(); ++ti) {
    old_installed_[ti].assign(old_routes_[ti].paths.size(), true);
    old_force_zero_[ti].assign(old_routes_[ti].paths.size(), false);
  }
  new_installed_.resize(new_routes_.size());
  for (size_t ti = 0; ti < new_routes_.size(); ++ti) {
    new_installed_[ti].assign(new_routes_[ti].paths.size(), false);
  }
  RecomputeEffectiveRates();
  if (n == 0) {
    log_.records.push_back({IntentKind::kCommit, -1, 0, 0.0});
    ApplyCommit(0.0);
  }
}

// Replay, StepUntil and Finish each open an "update.execute" span. A run
// calls them one after another, never inside each other, so summing the
// spans by name counts every executor step once.
void UpdateExecutor::Replay(const IntentLog& log) {
  OWAN_SPAN(span, "update", "update.execute");
  for (const IntentRecord& r : log.records) {
    switch (r.kind) {
      case IntentKind::kAttemptStart: {
        if (r.op >= 0 && r.op < static_cast<int>(ops_.size())) {
          const OpRun& prev = ops_[static_cast<size_t>(r.op)];
          // A retry start implies the previous attempt failed; the outcome
          // is a pure function of the seed, so re-derive its accounting.
          if (prev.state == OpState::kRunning &&
              prev.attempts == r.attempt - 1) {
            AccountAttemptFailure(r.op);
          }
          ApplyAttemptStart(r.op, r.attempt, r.t);
        }
        break;
      }
      case IntentKind::kOpDone:
        ApplyOpDone(r.op, r.t);
        break;
      case IntentKind::kOpFailed:
        AccountAttemptFailure(r.op);
        ApplyOpFailed(r.op, r.t);
        break;
      case IntentKind::kOpCancelled:
        ApplyOpCancelled(r.op, r.t);
        break;
      case IntentKind::kForced:
        ApplyForced(r.op, r.t);
        break;
      case IntentKind::kStage:
        ApplyStage(r.t);
        break;
      case IntentKind::kAbortBegin:
        ApplyAbortBegin(r.t);
        break;
      case IntentKind::kUndoStart:
        if (undo_running_ && undo_attempt_ == r.attempt - 1) {
          AccountUndoFailure();
        }
        ApplyUndoStart(r.op, r.attempt, r.t);
        break;
      case IntentKind::kUndoDone:
        ApplyUndoDone(r.op, r.t);
        break;
      case IntentKind::kCommit:
        ApplyCommit(r.t);
        break;
      case IntentKind::kAbortDone:
        ApplyAbortDone(r.t);
        break;
    }
    now_ = std::max(now_, r.t);
    log_.records.push_back(r);
  }
}

bool UpdateExecutor::Step() {
  if (terminal_) return false;
  StepOnce(kInf);
  return !terminal_;
}

bool UpdateExecutor::StepUntil(double t_limit, size_t max_log_records) {
  OWAN_SPAN(span, "update", "update.execute");
  span.AddArg("until_s", t_limit);
  while (!terminal_ && log_.records.size() < max_log_records) {
    if (!StepOnce(t_limit)) break;  // next action lies beyond t_limit
  }
  return terminal_;
}

// One decision or event batch. The order of checks is load-bearing: it
// makes the loop a pure function of the (replayable) executor state, so a
// run resumed from any intent-log prefix emits exactly the records the
// uninterrupted run would have emitted next.
bool UpdateExecutor::StepOnce(double t_limit) {
  if (!aborting_) {
    // Events already due at now_ complete before anything else starts: a
    // crash that cut a same-time completion batch resumes mid-batch.
    bool due = false;
    for (const OpRun& r : ops_) {
      if ((r.state == OpState::kRunning || r.state == OpState::kBackoff) &&
          r.event_time <= now_) {
        due = true;
        break;
      }
    }
    if (due) {
      ProcessEventsAt(now_);
      return true;
    }
    StartReady();
    if (dirty_) {
      EmitStage();  // teardown starts darken circuits, completions light them
      return true;
    }
    if (abort_requested_) {
      BeginAbort();
      return true;
    }
    if (unresolved_ == 0) {
      EvaluateCompletion();
      return true;
    }
    const double next = NextEventTime();
    if (next == kInf) {
      StallBreak();
      return true;
    }
    if (next > t_limit) return false;
    now_ = next;
    return true;
  }
  // Rollback: undo completed ops one at a time, unlimited retries.
  if (dirty_) {
    EmitStage();
    return true;
  }
  if (undo_pos_ >= undo_queue_.size()) {
    FinishAbort();
    return true;
  }
  if (undo_running_) {
    if (undo_event_ > t_limit) return false;
    now_ = undo_event_;
    ProcessUndoEnd();
    return true;
  }
  const double t = undo_event_ == kInf ? now_ : std::max(now_, undo_event_);
  if (t > t_limit) return false;
  now_ = t;
  StartUndo(now_);
  return true;
}

double UpdateExecutor::NextEventTime() const {
  double next = kInf;
  for (const OpRun& r : ops_) {
    if (r.state == OpState::kRunning || r.state == OpState::kBackoff) {
      next = std::min(next, r.event_time);
    }
  }
  return next;
}

bool UpdateExecutor::DepsResolved(const UpdateOp& op) const {
  for (int d : op.deps) {
    if (!resolved(d)) return false;
  }
  return true;
}

bool UpdateExecutor::PortsAvailable(const UpdateOp& op) const {
  if (op.type != OpType::kAddCircuit) return true;
  if (ops_[static_cast<size_t>(op.id)].holds_ports) return true;
  auto it_u = free_ports_.find(op.u);
  auto it_v = free_ports_.find(op.v);
  return it_u != free_ports_.end() && it_u->second > 0 &&
         it_v != free_ports_.end() && it_v->second > 0;
}

bool UpdateExecutor::CleanupGateOpen(const UpdateOp& op, bool* cancel) const {
  *cancel = false;
  if (op.type != OpType::kRemoveRoute || staged_.draining.count(op.id)) {
    return true;
  }
  auto it = staged_.transfer_add_routes.find(op.transfer_index);
  if (it == staged_.transfer_add_routes.end()) return true;
  bool all_done = true;
  for (int a : it->second) {
    if (!resolved(a)) return false;  // keep waiting
    if (ops_[static_cast<size_t>(a)].state != OpState::kDone) {
      all_done = false;
    }
  }
  // Make-before-break under faults: only break the old path if the new
  // ones actually carry traffic. A transfer whose replacement routes all
  // failed or ride dark circuits keeps its old path (plan repair).
  double nominal = 0.0, effective = 0.0;
  const size_t ti = static_cast<size_t>(op.transfer_index);
  if (ti < new_routes_.size()) {
    for (size_t pi = 0; pi < new_routes_[ti].paths.size(); ++pi) {
      nominal += new_routes_[ti].paths[pi].rate;
      if (new_installed_[ti][pi]) effective += eff_new_[ti][pi];
    }
  }
  if (!all_done || (nominal > kEps && effective <= kEps)) {
    *cancel = true;
  }
  return true;
}

void UpdateExecutor::StartReady() {
  // The cleanup gate reads clamped rates; refresh them if plant or route
  // state changed since the last stage boundary. Derived state only —
  // recomputing is replay-safe and keeps live/resumed decisions identical.
  if (dirty_) RecomputeEffectiveRates();
  bool started = true;
  while (started) {
    started = false;
    for (size_t i = 0; i < staged_.plan.ops.size(); ++i) {
      if (ops_[i].state != OpState::kPending) continue;
      const UpdateOp op = staged_.plan.ops[i];  // copy: ops may grow
      if (!DepsResolved(op)) continue;
      bool cancel = false;
      if (!CleanupGateOpen(op, &cancel)) continue;
      if (cancel) {
        log_.records.push_back({IntentKind::kOpCancelled, op.id, 0, now_});
        ApplyOpCancelled(op.id, now_);
        started = true;
        continue;
      }
      if (op.type == OpType::kAddRoute && op.transfer_index >= 0 &&
          static_cast<size_t>(op.transfer_index) < new_routes_.size() &&
          op.path_index >= 0 &&
          static_cast<size_t>(op.path_index) <
              new_routes_[static_cast<size_t>(op.transfer_index)]
                  .paths.size()) {
        // A link that is dark with every bring-up on it resolved will
        // never light; installing the route would just blackhole.
        const auto& nodes = new_routes_[static_cast<size_t>(op.transfer_index)]
                                .paths[static_cast<size_t>(op.path_index)]
                                .path.nodes;
        bool hopeless = false;
        for (size_t k = 0; k + 1 < nodes.size(); ++k) {
          if (lit_.Units(nodes[k], nodes[k + 1]) > 0) continue;
          bool hope = false;
          for (size_t j = 0; j < staged_.plan.ops.size(); ++j) {
            const UpdateOp& cj = staged_.plan.ops[j];
            if (cj.type == OpType::kAddCircuit &&
                Key(cj.u, cj.v) == Key(nodes[k], nodes[k + 1]) &&
                !resolved(cj.id)) {
              hope = true;
              break;
            }
          }
          if (!hope) {
            hopeless = true;
            break;
          }
        }
        if (hopeless) {
          log_.records.push_back({IntentKind::kOpCancelled, op.id, 0, now_});
          ApplyOpCancelled(op.id, now_);
          started = true;
          continue;
        }
      }
      if (!PortsAvailable(op)) continue;
      StartOp(op.id);
      // A zero-duration op is due immediately; yield so the completion is
      // processed before further starts (keeps resume order canonical).
      if (ops_[i].event_time <= now_) return;
      started = true;
    }
  }
}

void UpdateExecutor::StartOp(int op) {
  const int attempt = ops_[static_cast<size_t>(op)].attempts + 1;
  log_.records.push_back({IntentKind::kAttemptStart, op, attempt, now_});
  ApplyAttemptStart(op, attempt, now_);
}

void UpdateExecutor::StallBreak() {
  const size_t n = ops_.size();
  // A crash between a kForced record and its kAttemptStart leaves the
  // victim marked but unstarted; resume by starting it, not re-forcing.
  for (size_t i = 0; i < n; ++i) {
    if (ops_[i].state == OpState::kPending && ops_[i].forced) {
      StartOp(static_cast<int>(i));
      return;
    }
  }
  std::vector<bool> pending(n), done_mask(n);
  for (size_t i = 0; i < n; ++i) {
    pending[i] = ops_[i].state == OpState::kPending;
    done_mask[i] = resolved(static_cast<int>(i));
  }
  const int victim = PickStallVictim(staged_.plan, pending, done_mask);
  if (victim < 0) {
    // Defensive: unreachable while unresolved_ > 0. Fail safe.
    BeginAbort();
    return;
  }
  const UpdateOp& vop = staged_.plan.ops[static_cast<size_t>(victim)];
  if (!spare_ports_.empty() && vop.type == OpType::kAddCircuit &&
      !ops_[static_cast<size_t>(victim)].holds_ports &&
      AddCircuitPortsHopeless(vop)) {
    // The ports this bring-up needs can never materialize: every teardown
    // that would free one has permanently failed and the site has no
    // physical spares left. Forcing it would overshoot the plant's port
    // budget, so repair the plan by cancelling it — dependent route ops
    // resolve as hopeless and the cleanup gate keeps old traffic alive.
    log_.records.push_back({IntentKind::kOpCancelled, victim, 0, now_});
    ApplyOpCancelled(victim, now_);
    return;
  }
  log_.records.push_back({IntentKind::kForced, victim, 0, now_});
  ApplyForced(victim, now_);
  StartOp(victim);
}

bool UpdateExecutor::AddCircuitPortsHopeless(const UpdateOp& op) const {
  for (net::NodeId s : {op.u, op.v}) {
    auto it = free_ports_.find(s);
    if (it != free_ports_.end() && it->second > 0) continue;
    bool freeable = false;
    for (size_t i = 0; i < staged_.plan.ops.size() && !freeable; ++i) {
      const UpdateOp& other = staged_.plan.ops[i];
      freeable = other.type == OpType::kRemoveCircuit &&
                 !resolved(static_cast<int>(i)) &&
                 (other.u == s || other.v == s);
    }
    if (freeable) continue;
    const int spare = s >= 0 && static_cast<size_t>(s) < spare_ports_.size()
                          ? spare_ports_[static_cast<size_t>(s)]
                          : 0;
    const auto bit = borrowed_ports_.find(s);
    const int borrowed = bit == borrowed_ports_.end() ? 0 : bit->second;
    if (spare - borrowed <= 0) return true;
  }
  return false;
}

void UpdateExecutor::EmitStage() {
  log_.records.push_back({IntentKind::kStage, -1, 0, now_});
  ApplyStage(now_);
}

void UpdateExecutor::ProcessEventsAt(double t) {
  for (size_t i = 0; i < ops_.size(); ++i) {
    if (ops_[i].event_time > t) continue;
    if (ops_[i].state == OpState::kRunning) {
      ProcessAttemptEnd(static_cast<int>(i));
    } else if (ops_[i].state == OpState::kBackoff) {
      StartOp(static_cast<int>(i));
    }
  }
}

void UpdateExecutor::ProcessAttemptEnd(int op) {
  OpRun& r = ops_[static_cast<size_t>(op)];
  const double t = r.attempt_end;
  if (!r.sample.fails && !r.timed_out) {
    log_.records.push_back({IntentKind::kOpDone, op, r.attempts, t});
    ApplyOpDone(op, t);
    return;
  }
  AccountAttemptFailure(op);
  if (r.attempts >= kMaxAttempts) {
    log_.records.push_back({IntentKind::kOpFailed, op, r.attempts, t});
    ApplyOpFailed(op, t);
    return;
  }
  r.state = OpState::kBackoff;
  r.event_time = t + BackoffAfter(r.attempts);
}

void UpdateExecutor::EvaluateCompletion() {
  RecomputeEffectiveRates();
  if (ShouldAbort()) {
    BeginAbort();
    return;
  }
  log_.records.push_back({IntentKind::kCommit, -1, 0, now_});
  ApplyCommit(now_);
}

void UpdateExecutor::BeginAbort() {
  log_.records.push_back({IntentKind::kAbortBegin, -1, 0, now_});
  ApplyAbortBegin(now_);
}

void UpdateExecutor::StartUndo(double t) {
  const int op = undo_queue_[undo_pos_];
  const int attempt = undo_attempt_ + 1;
  log_.records.push_back({IntentKind::kUndoStart, op, attempt, t});
  ApplyUndoStart(op, attempt, t);
}

void UpdateExecutor::ProcessUndoEnd() {
  const int op = undo_queue_[undo_pos_];
  if (!undo_sample_.fails && !undo_timed_out_) {
    log_.records.push_back({IntentKind::kUndoDone, op, undo_attempt_, now_});
    ApplyUndoDone(op, now_);
    return;
  }
  AccountUndoFailure();
  // Rollback must land: retry forever with capped backoff.
  undo_running_ = false;
  undo_event_ = now_ + BackoffAfter(undo_attempt_);
}

void UpdateExecutor::FinishAbort() {
  log_.records.push_back({IntentKind::kAbortDone, -1, 0, now_});
  ApplyAbortDone(now_);
}

// ---- shared transitions ----

void UpdateExecutor::ApplyForced(int op, double t) {
  (void)t;
  const UpdateOp& o = staged_.plan.ops[static_cast<size_t>(op)];
  OpRun& r = ops_[static_cast<size_t>(op)];
  r.forced = true;
  // A forced bring-up takes no ledger port — it rides a physical spare.
  if (o.type == OpType::kAddCircuit && !r.holds_ports) {
    ++borrowed_ports_[o.u];
    ++borrowed_ports_[o.v];
  }
  stats_.forced_ops++;
  OWAN_COUNT("update.exec.forced_ops");
}

void UpdateExecutor::ApplyAttemptStart(int op, int attempt, double t) {
  const UpdateOp o = staged_.plan.ops[static_cast<size_t>(op)];
  OpRun& r = ops_[static_cast<size_t>(op)];
  r.attempts = attempt;
  r.state = OpState::kRunning;
  if (r.first_start < 0) r.first_start = t;
  r.sample = fault::SampleActuation(options_.actuation, op, attempt,
                                    IsCircuitOp(o), o.duration_s,
                                    fault::ActuationPhase::kForward);
  const double timeout = kTimeoutFactor * o.duration_s;
  r.timed_out = r.sample.latency_s > timeout;
  r.attempt_end = t + std::min(r.sample.latency_s, timeout);
  r.event_time = r.attempt_end;
  stats_.attempts++;
  if (attempt == 1) {
    if (o.type == OpType::kRemoveCircuit) {
      // Dark from the moment teardown starts.
      if (lit_.Units(o.u, o.v) > 0) lit_.AddUnits(o.u, o.v, -1);
      dirty_ = true;
    } else if (o.type == OpType::kAddCircuit && !r.forced && !r.holds_ports) {
      --free_ports_[o.u];
      --free_ports_[o.v];
      r.holds_ports = true;
    }
  }
}

void UpdateExecutor::ApplyOpDone(int op, double t) {
  const UpdateOp o = staged_.plan.ops[static_cast<size_t>(op)];
  OpRun& r = ops_[static_cast<size_t>(op)];
  if (r.sample.straggler) stats_.stragglers++;
  r.state = OpState::kDone;
  r.resolve_time = t;
  r.event_time = kInf;
  --unresolved_;
  completion_order_.push_back(op);
  switch (o.type) {
    case OpType::kRemoveCircuit:
      ++free_ports_[o.u];
      ++free_ports_[o.v];
      break;
    case OpType::kAddCircuit:
      lit_.AddUnits(o.u, o.v, 1);
      dirty_ = true;
      break;
    case OpType::kRemoveRoute:
      if (o.transfer_index >= 0 &&
          static_cast<size_t>(o.transfer_index) < old_installed_.size() &&
          o.path_index >= 0 &&
          static_cast<size_t>(o.path_index) <
              old_installed_[static_cast<size_t>(o.transfer_index)].size()) {
        old_installed_[static_cast<size_t>(o.transfer_index)]
                      [static_cast<size_t>(o.path_index)] = false;
        dirty_ = true;
      }
      break;
    case OpType::kAddRoute:
      if (o.transfer_index >= 0 &&
          static_cast<size_t>(o.transfer_index) < new_installed_.size() &&
          o.path_index >= 0 &&
          static_cast<size_t>(o.path_index) <
              new_installed_[static_cast<size_t>(o.transfer_index)].size()) {
        new_installed_[static_cast<size_t>(o.transfer_index)]
                      [static_cast<size_t>(o.path_index)] = true;
        dirty_ = true;
      }
      break;
  }
}

void UpdateExecutor::ApplyOpFailed(int op, double t) {
  const UpdateOp o = staged_.plan.ops[static_cast<size_t>(op)];
  {
    OpRun& r = ops_[static_cast<size_t>(op)];
    r.state = OpState::kFailed;
    r.resolve_time = t;
    r.event_time = kInf;
  }
  --unresolved_;
  stats_.failed_ops++;
  OWAN_COUNT("update.exec.failed_ops");
  switch (o.type) {
    case OpType::kRemoveCircuit:
      // The ROADM refused the teardown: the cross-connect persists, lit,
      // ports still consumed. The realized topology keeps the circuit.
      lit_.AddUnits(o.u, o.v, 1);
      dirty_ = true;
      // Bring-ups forced into service borrowed against this teardown's
      // ports. If, with the ports now stuck, either endpoint's locked-in
      // usage exceeds the plant's budget even counting every teardown
      // still in flight, no repair can reconcile the plan — safe-abort.
      if (!spare_ports_.empty()) {
        for (net::NodeId s : {o.u, o.v}) {
          int avail = s >= 0 && static_cast<size_t>(s) < spare_ports_.size()
                          ? spare_ports_[static_cast<size_t>(s)]
                          : 0;
          const auto bit = borrowed_ports_.find(s);
          avail -= bit == borrowed_ports_.end() ? 0 : bit->second;
          const auto fit = free_ports_.find(s);
          avail += fit == free_ports_.end() ? 0 : fit->second;
          for (size_t i = 0; i < staged_.plan.ops.size(); ++i) {
            const UpdateOp& other = staged_.plan.ops[i];
            if (other.type == OpType::kRemoveCircuit &&
                !resolved(static_cast<int>(i)) &&
                (other.u == s || other.v == s)) {
              ++avail;
            }
          }
          if (avail < 0) abort_requested_ = true;
        }
      }
      break;
    case OpType::kAddCircuit: {
      if (ops_[static_cast<size_t>(op)].forced &&
          !ops_[static_cast<size_t>(op)].holds_ports) {
        // A failed forced bring-up never lights: return its borrowed spares.
        --borrowed_ports_[o.u];
        --borrowed_ports_[o.v];
      }
      const bool spawn = !ops_[static_cast<size_t>(op)].alternate &&
                         !ops_[static_cast<size_t>(op)].spawned_alternate;
      if (spawn) {
        SpawnAlternate(op);
      } else if (ops_[static_cast<size_t>(op)].holds_ports) {
        ReleaseCircuitPorts(o.u, o.v);
        ops_[static_cast<size_t>(op)].holds_ports = false;
      }
      break;
    }
    case OpType::kRemoveRoute:
      // The router won't drop the rule; drain it by rate-limiting to zero
      // so a dependent circuit teardown never blackholes live traffic.
      if (o.transfer_index >= 0 &&
          static_cast<size_t>(o.transfer_index) < old_force_zero_.size() &&
          o.path_index >= 0 &&
          static_cast<size_t>(o.path_index) <
              old_force_zero_[static_cast<size_t>(o.transfer_index)].size()) {
        old_force_zero_[static_cast<size_t>(o.transfer_index)]
                       [static_cast<size_t>(o.path_index)] = true;
        dirty_ = true;
      }
      break;
    case OpType::kAddRoute:
      break;  // never installed; cleanup gating keeps the old path
  }
}

void UpdateExecutor::ApplyOpCancelled(int op, double t) {
  const UpdateOp o = staged_.plan.ops[static_cast<size_t>(op)];
  OpRun& r = ops_[static_cast<size_t>(op)];
  r.state = OpState::kCancelled;
  r.resolve_time = t;
  r.event_time = kInf;
  --unresolved_;
  stats_.cancelled_ops++;
  if (o.type == OpType::kAddCircuit && r.holds_ports) {
    ReleaseCircuitPorts(o.u, o.v);
    r.holds_ports = false;
  }
  if (o.type == OpType::kRemoveRoute && !staged_.draining.count(o.id)) {
    stats_.kept_old_routes++;
    OWAN_COUNT("update.exec.kept_old_routes");
  }
}

void UpdateExecutor::ApplyStage(double t) {
  RecomputeEffectiveRates();
  stats_.stage_checks++;
  for (std::string& v : fault::InvariantChecker::CheckUpdateStage(
           lit_, options_.theta, InstalledAllocations(),
           /*check_capacity=*/true)) {
    std::ostringstream os;
    os << "t=" << t << ": " << v;
    violations_.push_back(os.str());
  }
  dirty_ = false;
}

void UpdateExecutor::ApplyAbortBegin(double t) {
  aborting_ = true;
  // Discard everything still in flight, undoing partial start effects:
  // a half-finished teardown is cancelled (the circuit relights), a
  // half-finished bring-up releases its ports.
  for (size_t i = 0; i < ops_.size(); ++i) {
    if (resolved(static_cast<int>(i))) continue;
    const UpdateOp o = staged_.plan.ops[i];
    OpRun& r = ops_[i];
    if (r.attempts > 0) {
      if (o.type == OpType::kRemoveCircuit) {
        lit_.AddUnits(o.u, o.v, 1);
        dirty_ = true;
      } else if (o.type == OpType::kAddCircuit && r.holds_ports) {
        ReleaseCircuitPorts(o.u, o.v);
        r.holds_ports = false;
      }
    }
    r.state = OpState::kCancelled;
    r.resolve_time = t;
    r.event_time = kInf;
    --unresolved_;
  }
  // Undo completed ops newest-first: forward execution respected
  // make-before-break, so its exact reversal does too.
  undo_queue_.assign(completion_order_.rbegin(), completion_order_.rend());
  undo_pos_ = 0;
  undo_attempt_ = 0;
  undo_running_ = false;
  undo_event_ = kInf;
  OWAN_COUNT("update.exec.aborts");
}

void UpdateExecutor::ApplyUndoStart(int op, int attempt, double t) {
  const UpdateOp o = staged_.plan.ops[static_cast<size_t>(op)];
  undo_running_ = true;
  undo_attempt_ = attempt;
  undo_sample_ = fault::SampleActuation(options_.actuation, op, attempt,
                                        IsCircuitOp(o), o.duration_s,
                                        fault::ActuationPhase::kRollback);
  const double timeout = kTimeoutFactor * o.duration_s;
  undo_timed_out_ = undo_sample_.latency_s > timeout;
  undo_event_ = t + std::min(undo_sample_.latency_s, timeout);
  stats_.attempts++;
  if (attempt == 1) {
    if (o.type == OpType::kAddCircuit) {
      // Undoing a bring-up is a teardown: dark from undo start.
      if (lit_.Units(o.u, o.v) > 0) lit_.AddUnits(o.u, o.v, -1);
      dirty_ = true;
    } else if (o.type == OpType::kRemoveCircuit) {
      --free_ports_[o.u];
      --free_ports_[o.v];
    }
  }
}

void UpdateExecutor::ApplyUndoDone(int op, double t) {
  const UpdateOp o = staged_.plan.ops[static_cast<size_t>(op)];
  switch (o.type) {
    case OpType::kAddCircuit:
      ++free_ports_[o.u];
      ++free_ports_[o.v];
      break;
    case OpType::kRemoveCircuit:
      lit_.AddUnits(o.u, o.v, 1);
      dirty_ = true;
      break;
    case OpType::kRemoveRoute:
      if (o.transfer_index >= 0 &&
          static_cast<size_t>(o.transfer_index) < old_installed_.size() &&
          o.path_index >= 0 &&
          static_cast<size_t>(o.path_index) <
              old_installed_[static_cast<size_t>(o.transfer_index)].size()) {
        old_installed_[static_cast<size_t>(o.transfer_index)]
                      [static_cast<size_t>(o.path_index)] = true;
        dirty_ = true;
      }
      break;
    case OpType::kAddRoute:
      if (o.transfer_index >= 0 &&
          static_cast<size_t>(o.transfer_index) < new_installed_.size() &&
          o.path_index >= 0 &&
          static_cast<size_t>(o.path_index) <
              new_installed_[static_cast<size_t>(o.transfer_index)].size()) {
        new_installed_[static_cast<size_t>(o.transfer_index)]
                      [static_cast<size_t>(o.path_index)] = false;
        dirty_ = true;
      }
      break;
  }
  if (undo_sample_.straggler) stats_.stragglers++;
  stats_.rollback_ops++;
  (void)t;
  ++undo_pos_;
  undo_attempt_ = 0;
  undo_running_ = false;
  undo_event_ = kInf;
}

void UpdateExecutor::ApplyCommit(double t) {
  now_ = std::max(now_, t);
  terminal_ = true;
  outcome_ = ExecOutcome::kConverged;
}

void UpdateExecutor::ApplyAbortDone(double t) {
  RecomputeEffectiveRates();
  if (!(lit_ == from_)) {
    violations_.push_back(
        "rollback did not restore the pre-update topology");
  }
  now_ = std::max(now_, t);
  terminal_ = true;
  outcome_ = ExecOutcome::kAborted;
}

void UpdateExecutor::AccountAttemptFailure(int op) {
  const OpRun& r = ops_[static_cast<size_t>(op)];
  stats_.retries++;
  OWAN_COUNT("update.exec.retries");
  if (r.timed_out) {
    stats_.timeouts++;
    OWAN_COUNT("update.exec.timeouts");
  }
  if (r.sample.straggler) stats_.stragglers++;
}

void UpdateExecutor::AccountUndoFailure() {
  stats_.retries++;
  OWAN_COUNT("update.exec.retries");
  if (undo_timed_out_) {
    stats_.timeouts++;
    OWAN_COUNT("update.exec.timeouts");
  }
  if (undo_sample_.straggler) stats_.stragglers++;
}

void UpdateExecutor::SpawnAlternate(int orig) {
  const UpdateOp o = staged_.plan.ops[static_cast<size_t>(orig)];
  UpdateOp alt;
  alt.id = static_cast<int>(staged_.plan.ops.size());
  alt.type = OpType::kAddCircuit;
  alt.u = o.u;
  alt.v = o.v;
  alt.duration_s = o.duration_s;
  staged_.plan.ops.push_back(alt);
  OpRun run;
  run.alternate = true;
  // A fresh op id means a fresh actuation substream: the alternate is a
  // different wavelength/port assignment, not a retry of the same one.
  run.holds_ports = ops_[static_cast<size_t>(orig)].holds_ports;
  ops_[static_cast<size_t>(orig)].holds_ports = false;
  ops_.push_back(run);
  ++unresolved_;
  stats_.alternate_circuits++;
  OWAN_COUNT("update.exec.alternate_circuits");
}

void UpdateExecutor::ReleaseCircuitPorts(net::NodeId u, net::NodeId v) {
  ++free_ports_[u];
  ++free_ports_[v];
}

void UpdateExecutor::RecomputeEffectiveRates() {
  eff_old_.resize(old_routes_.size());
  eff_new_.resize(new_routes_.size());
  std::map<LinkKey, double> agg;
  auto accumulate = [&](const core::PathAllocation& pa, double n) {
    if (n <= kEps) return;
    for (size_t k = 0; k + 1 < pa.path.nodes.size(); ++k) {
      agg[Key(pa.path.nodes[k], pa.path.nodes[k + 1])] += n;
    }
  };
  for (size_t ti = 0; ti < old_routes_.size(); ++ti) {
    eff_old_[ti].assign(old_routes_[ti].paths.size(), 0.0);
    for (size_t pi = 0; pi < old_routes_[ti].paths.size(); ++pi) {
      if (!old_installed_[ti][pi] || old_force_zero_[ti][pi]) continue;
      accumulate(old_routes_[ti].paths[pi], old_routes_[ti].paths[pi].rate);
    }
  }
  for (size_t ti = 0; ti < new_routes_.size(); ++ti) {
    eff_new_[ti].assign(new_routes_[ti].paths.size(), 0.0);
    for (size_t pi = 0; pi < new_routes_[ti].paths.size(); ++pi) {
      if (!new_installed_[ti][pi]) continue;
      accumulate(new_routes_[ti].paths[pi], new_routes_[ti].paths[pi].rate);
    }
  }
  // Worst-link proportional share: each route is clamped by the most
  // oversubscribed link it crosses, so no lit link ever overshoots and a
  // dark link carries exactly zero (the no-blackhole guarantee).
  auto clamp = [&](const core::PathAllocation& pa, double n) {
    if (n <= kEps) return 0.0;
    double ratio = 1.0;
    for (size_t k = 0; k + 1 < pa.path.nodes.size(); ++k) {
      const LinkKey lk = Key(pa.path.nodes[k], pa.path.nodes[k + 1]);
      const int units = lit_.Units(lk.first, lk.second);
      const double cap = units > 0 ? units * options_.theta : 0.0;
      const double a = agg[lk];
      if (a > cap) ratio = std::min(ratio, cap > 0.0 ? cap / a : 0.0);
    }
    return ratio >= 1.0 ? n : n * ratio;
  };
  for (size_t ti = 0; ti < old_routes_.size(); ++ti) {
    for (size_t pi = 0; pi < old_routes_[ti].paths.size(); ++pi) {
      if (!old_installed_[ti][pi] || old_force_zero_[ti][pi]) continue;
      eff_old_[ti][pi] =
          clamp(old_routes_[ti].paths[pi], old_routes_[ti].paths[pi].rate);
    }
  }
  for (size_t ti = 0; ti < new_routes_.size(); ++ti) {
    for (size_t pi = 0; pi < new_routes_[ti].paths.size(); ++pi) {
      if (!new_installed_[ti][pi]) continue;
      eff_new_[ti][pi] =
          clamp(new_routes_[ti].paths[pi], new_routes_[ti].paths[pi].rate);
    }
  }
}

std::vector<core::TransferAllocation> UpdateExecutor::InstalledAllocations()
    const {
  std::vector<core::TransferAllocation> out;
  for (size_t ti = 0; ti < old_routes_.size(); ++ti) {
    core::TransferAllocation a;
    a.id = old_routes_[ti].id;
    for (size_t pi = 0; pi < old_routes_[ti].paths.size(); ++pi) {
      if (!old_installed_[ti][pi]) continue;
      core::PathAllocation pa = old_routes_[ti].paths[pi];
      pa.rate = old_force_zero_[ti][pi] ? 0.0 : eff_old_[ti][pi];
      a.paths.push_back(std::move(pa));
    }
    if (!a.paths.empty()) out.push_back(std::move(a));
  }
  for (size_t ti = 0; ti < new_routes_.size(); ++ti) {
    core::TransferAllocation a;
    a.id = new_routes_[ti].id;
    for (size_t pi = 0; pi < new_routes_[ti].paths.size(); ++pi) {
      if (!new_installed_[ti][pi]) continue;
      core::PathAllocation pa = new_routes_[ti].paths[pi];
      pa.rate = eff_new_[ti][pi];
      a.paths.push_back(std::move(pa));
    }
    if (!a.paths.empty()) out.push_back(std::move(a));
  }
  return out;
}

bool UpdateExecutor::ShouldAbort() const {
  for (size_t ti = 0; ti < new_routes_.size(); ++ti) {
    double new_nominal = 0.0;
    for (const core::PathAllocation& pa : new_routes_[ti].paths) {
      new_nominal += pa.rate;
    }
    if (new_nominal <= kEps) continue;
    double old_nominal = 0.0;
    if (ti < old_routes_.size()) {
      for (const core::PathAllocation& pa : old_routes_[ti].paths) {
        old_nominal += pa.rate;
      }
    }
    if (old_nominal <= kEps) continue;  // brand-new transfer: nothing broken
    double effective = 0.0;
    for (size_t pi = 0; pi < new_routes_[ti].paths.size(); ++pi) {
      if (new_installed_[ti][pi]) effective += eff_new_[ti][pi];
    }
    if (ti < old_routes_.size()) {
      for (size_t pi = 0; pi < old_routes_[ti].paths.size(); ++pi) {
        if (old_installed_[ti][pi] && !old_force_zero_[ti][pi]) {
          effective += eff_old_[ti][pi];
        }
      }
    }
    // The update disconnected a transfer that had working routes before:
    // converging here would strand it until the next slot. Safe-abort.
    if (effective <= kEps) return true;
  }
  return false;
}

ExecResult UpdateExecutor::Finish() {
  OWAN_SPAN(exec_span, "update", "update.execute");
  while (!terminal_) Step();
  ExecResult res;
  res.outcome = outcome_;
  res.makespan = now_;
  res.stats = stats_;
  res.invariant_violations = violations_;
  res.log = log_;
  for (size_t i = 0; i < ops_.size(); ++i) {
    const OpRun& r = ops_[i];
    if (r.first_start < 0) continue;
    res.schedule.items.push_back(ScheduledOp{
        static_cast<int>(i), r.first_start,
        r.resolve_time >= 0 ? r.resolve_time : now_, r.forced});
  }
  std::sort(res.schedule.items.begin(), res.schedule.items.end(),
            [](const ScheduledOp& a, const ScheduledOp& b) {
              return a.start != b.start ? a.start < b.start
                                        : a.op_id < b.op_id;
            });
  res.schedule.makespan = now_;
  if (outcome_ == ExecOutcome::kConverged) {
    res.final_topology = lit_;
    RecomputeEffectiveRates();
    for (size_t ti = 0; ti < new_routes_.size(); ++ti) {
      core::TransferAllocation a;
      a.id = new_routes_[ti].id;
      for (size_t pi = 0; pi < new_routes_[ti].paths.size(); ++pi) {
        if (!new_installed_[ti][pi]) continue;
        core::PathAllocation pa = new_routes_[ti].paths[pi];
        pa.rate = eff_new_[ti][pi];
        a.paths.push_back(std::move(pa));
      }
      // Old paths the repair kept alive (cancelled cleanups) ride along.
      if (ti < old_routes_.size()) {
        for (size_t pi = 0; pi < old_routes_[ti].paths.size(); ++pi) {
          if (!old_installed_[ti][pi] || old_force_zero_[ti][pi]) continue;
          core::PathAllocation pa = old_routes_[ti].paths[pi];
          pa.rate = eff_old_[ti][pi];
          a.paths.push_back(std::move(pa));
        }
      }
      res.final_routes.push_back(std::move(a));
    }
  } else {
    res.final_topology = from_;
    res.final_routes = old_routes_;
  }
  OWAN_COUNT("update.exec.plans");
  OWAN_HISTO("update.exec.convergence_s", ::owan::obs::Unit::kSimSeconds,
             res.makespan);
  exec_span.AddArg("makespan_s", res.makespan);
  exec_span.AddArg("ops", static_cast<double>(ops_.size()));
  return res;
}

ExecResult UpdateExecutor::ExecutePlan(ExecutorInput input,
                                       const ExecutorOptions& options) {
  UpdateExecutor ex(std::move(input), options);
  return ex.Finish();
}

}  // namespace owan::update
