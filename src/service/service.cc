#include "service/service.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "fault/fault_injector.h"
#include "obs/obs.h"
#include "update/executor.h"
#include "update/update_plan.h"

namespace owan::service {

namespace {

// FNV-1a over the 8 bytes of `v`, little-end first. Byte-wise (not a single
// multiply) so the digest matches across platforms with the same doubles.
void Mix(uint64_t& acc, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    acc = (acc ^ ((v >> (8 * i)) & 0xffu)) * 1099511628211ULL;
  }
}

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

size_t Log2Bucket(size_t depth) {
  size_t b = 0;
  while (depth > 0 && b < 15) {
    depth >>= 1;
    ++b;
  }
  return b;
}

ServiceOptions PassthroughOptions(const sim::SimOptions& sim,
                                  bool retain_records) {
  ServiceOptions o;
  o.slot_seconds = sim.slot_seconds;
  o.max_time_s = sim.max_time_s;
  o.mode = ServiceMode::kPassthrough;
  o.retain_records = retain_records;
  return o;
}

// Checkpoint dialect for routes: one "<tag> <id>" line per allocation, then
// one "path <rate> <n> <node...>" line per path. Only node sequences are
// stored: the progress arithmetic, the update planner and the executor
// read nodes alone.
void WriteAllocation(std::ostream& os, const char* tag, int id,
                     const core::TransferAllocation& a) {
  os << tag << " " << id << "\n";
  for (const core::PathAllocation& pa : a.paths) {
    os << "path " << pa.rate << " " << pa.path.nodes.size();
    for (net::NodeId n : pa.path.nodes) os << " " << n;
    os << "\n";
  }
}

bool ReadPathBody(std::istream& ls, core::PathAllocation& pa) {
  size_t len = 0;
  ls >> pa.rate >> len;
  for (size_t k = 0; k < len && !ls.fail(); ++k) {
    net::NodeId n;
    ls >> n;
    pa.path.nodes.push_back(n);
  }
  return !ls.fail();
}

void WriteTopology(std::ostream& os, const char* tag,
                   const core::Topology& t) {
  os << tag << " " << t.NumSites() << "\n";
  for (const core::Link& l : t.Links()) {
    os << "link " << l.u << " " << l.v << " " << l.units << "\n";
  }
}

// Raw failure state, not its effects: a fiber dark only because its site
// is down is not written as cut, so it comes back with the site.
void WritePlantFailures(std::ostream& os,
                        const optical::OpticalNetwork& plant) {
  os << "plant\n";
  for (net::EdgeId e = 0; e < plant.NumFibers(); ++e) {
    if (plant.FiberCut(e)) os << "fiber-failed " << e << "\n";
    if (plant.FiberDegradationDb(e) > 0.0) {
      os << "fiber-degraded " << e << " " << plant.FiberDegradationDb(e)
         << "\n";
    }
  }
  for (net::NodeId v = 0; v < plant.NumSites(); ++v) {
    if (plant.SiteFailed(v)) os << "site-failed " << v << "\n";
    if (plant.FailedPorts(v) > 0) {
      os << "ports-failed " << v << " " << plant.FailedPorts(v) << "\n";
    }
    if (plant.FailedRegens(v) > 0) {
      os << "regens-failed " << v << " " << plant.FailedRegens(v) << "\n";
    }
  }
}

// While the controller is down the data plane keeps forwarding the last
// installed rates, but a plant fault can physically shrink the topology
// underneath them. Drop paths riding links that no longer exist, then scale
// the survivors so no shrunken link is oversubscribed (each path takes the
// worst cap/aggregate ratio across its links — one pass suffices because
// every contribution to a link shrinks by at least that link's ratio).
void PruneFrozenAllocations(std::map<int, core::TransferAllocation>& frozen,
                            const core::Topology& topology, double theta) {
  for (auto& [id, alloc] : frozen) {
    std::vector<core::PathAllocation> kept;
    kept.reserve(alloc.paths.size());
    for (core::PathAllocation& pa : alloc.paths) {
      bool alive = true;
      for (size_t i = 0; i + 1 < pa.path.nodes.size(); ++i) {
        if (topology.Units(pa.path.nodes[i], pa.path.nodes[i + 1]) <= 0) {
          alive = false;
          break;
        }
      }
      if (alive) kept.push_back(std::move(pa));
    }
    alloc.paths = std::move(kept);
  }
  std::map<sim::LinkKey, double> link_rate;
  for (const auto& [id, alloc] : frozen) {
    for (const core::PathAllocation& pa : alloc.paths) {
      for (size_t i = 0; i + 1 < pa.path.nodes.size(); ++i) {
        link_rate[sim::MakeLinkKey(pa.path.nodes[i], pa.path.nodes[i + 1])] +=
            pa.rate;
      }
    }
  }
  for (auto& [id, alloc] : frozen) {
    for (core::PathAllocation& pa : alloc.paths) {
      double scale = 1.0;
      for (size_t i = 0; i + 1 < pa.path.nodes.size(); ++i) {
        const sim::LinkKey k =
            sim::MakeLinkKey(pa.path.nodes[i], pa.path.nodes[i + 1]);
        const double cap = topology.Units(k.first, k.second) * theta;
        const double sum = link_rate[k];
        if (sum > cap && sum > 0.0) scale = std::min(scale, cap / sum);
      }
      pa.rate *= scale;
    }
  }
}

}  // namespace

ControllerService::ControllerService(const topo::Wan* wan,
                                     core::TeScheme* scheme,
                                     ServiceOptions options)
    : wan_(wan),
      scheme_(scheme),
      options_(options),
      topology_(wan->default_topology),
      admission_(wan->default_topology.ToGraph(
                     wan->optical.wavelength_capacity()),
                 AdmissionOptions{options.slot_seconds,
                                  options.admission_k_paths}) {
  if (scheme_ == nullptr) {
    throw std::invalid_argument("ControllerService: null scheme");
  }
}

ControllerService::ControllerService(const topo::Wan* wan,
                                     std::unique_ptr<core::TeScheme> scheme,
                                     ServiceOptions options)
    : ControllerService(wan, scheme.get(), options) {
  owned_scheme_ = std::move(scheme);
}

ControllerService::ControllerService(const topo::Wan* wan,
                                     std::unique_ptr<core::TeScheme> scheme,
                                     const sim::SimOptions& sim)
    : ControllerService(wan, scheme.get(),
                        PassthroughOptions(sim, /*retain_records=*/true)) {
  owned_scheme_ = std::move(scheme);
  sim_ = sim;
  sim_.faults.Normalize();
  invariant_checks_ = true;
}

ControllerService::ControllerService(const topo::Wan* wan,
                                     core::TeScheme& scheme,
                                     const std::vector<core::Request>& requests,
                                     const sim::SimOptions& sim)
    : ControllerService(wan, &scheme,
                        PassthroughOptions(sim, /*retain_records=*/false)) {
  sim_ = sim;
  sim_.faults.Normalize();
  invariant_checks_ = true;
  batch_ = true;
  result_.transfers.resize(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    result_.transfers[i].request = requests[i];
    queued_.emplace_back(static_cast<int>(i), requests[i]);
  }
}

void ControllerService::AttachStream(const workload::StreamParams& params,
                                     uint64_t max_requests) {
  stream_.emplace(wan_->optical.NumSites(), params);
  stream_limit_ = max_requests;
  if (stream_resume_cursor_ > 0) {
    stream_->FastForward(stream_resume_cursor_);
    stream_consumed_ = stream_resume_cursor_;
  }
}

void ControllerService::Submit(const core::Request& r) {
  if (r.src == r.dst || r.size <= 0.0 || r.id < 0) {
    throw std::invalid_argument("ControllerService::Submit: bad request");
  }
  if (!queued_.empty() && r.arrival < queued_.back().second.arrival) {
    throw std::invalid_argument(
        "ControllerService::Submit: arrivals must be non-decreasing");
  }
  queued_.emplace_back(r.id, r);
}

ControllerService::Record* ControllerService::FindRecord(int key) {
  auto it = records_.find(key);
  return it == records_.end() ? nullptr : &it->second;
}

void ControllerService::FinalizeDecision(Record& rec, Verdict v,
                                         double decision_time) {
  rec.verdict = v;
  rec.decided_at = decision_time;
  const double latency = decision_time - rec.request.arrival;
  const size_t bucket = std::min<size_t>(
      15, static_cast<size_t>(
              std::max(0.0, latency) / options_.slot_seconds + 1e-9));
  ++stats_.decision_latency_slots[bucket];
  OWAN_HISTO("service.decision_latency_s", ::owan::obs::Unit::kSimSeconds,
             std::max(0.0, latency));
  if (v == Verdict::kAdmitted) {
    ++stats_.admitted;
    OWAN_COUNT("service.admitted");
  } else {
    ++stats_.rejected;
    OWAN_COUNT("service.rejected");
  }
  Mix(fp_acc_, static_cast<uint64_t>(rec.request.id));
  Mix(fp_acc_, static_cast<uint64_t>(v));
  Mix(fp_acc_, Bits(decision_time));
}

void ControllerService::FinalizeCompletion(int key, Record& rec) {
  ++stats_.completed;
  stats_.makespan = std::max(stats_.makespan, rec.completed_at);
  OWAN_COUNT("sim.transfers_completed");
  Mix(fp_acc_, static_cast<uint64_t>(rec.request.id));
  Mix(fp_acc_, Bits(rec.completed_at));
  Mix(fp_acc_, Bits(rec.delivered));
  // The booking and the frozen rates free up at once, so a pruning during
  // a controller outage scales only the transfers still running. The
  // passthrough ledger holds no bookings.
  admission_.Release(rec.request.id, now_);
  frozen_.erase(key);
  if (batch_) result_.transfers[static_cast<size_t>(key)] = Outcome(rec);
  if (!options_.retain_records) records_.erase(key);
}

void ControllerService::DecideAndActivate(int key, const core::Request& r,
                                          double decision_time) {
  Record rec;
  rec.request = r;
  rec.remaining = r.size;
  auto [it, inserted] = records_.emplace(key, std::move(rec));
  if (!inserted) {
    throw std::invalid_argument("ControllerService: duplicate request id " +
                                std::to_string(r.id));
  }
  if (options_.retain_records) submission_order_.push_back(key);
  Record& stored = it->second;

  if (options_.mode == ServiceMode::kPassthrough) {
    // The scheme's own Admit hook decides, and even rejected requests
    // activate (Amoeba serves them best-effort with leftover capacity).
    const bool ok = scheme_->Admit(r, decision_time);
    FinalizeDecision(stored, ok ? Verdict::kAdmitted : Verdict::kRejected,
                     decision_time);
    active_order_.push_back(key);
    demand_added_ += r.size;
    return;
  }

  const Admission a = admission_.Offer(r, decision_time);
  switch (a) {
    case Admission::kAdmitted:
      FinalizeDecision(stored, Verdict::kAdmitted, decision_time);
      active_order_.push_back(key);
      demand_added_ += r.size;
      break;
    case Admission::kPending:
      stored.verdict = Verdict::kPending;
      pending_.push_back(key);
      ++stats_.pending_enqueued;
      OWAN_COUNT("service.pending_enqueued");
      break;
    case Admission::kRejected:
      FinalizeDecision(stored, Verdict::kRejected, decision_time);
      if (!options_.retain_records) records_.erase(key);
      break;
  }
}

void ControllerService::IngestArrivals() {
  for (;;) {
    const bool stream_has = stream_ && stream_consumed_ < stream_limit_;
    const bool queue_has = !queued_.empty();
    if (!stream_has && !queue_has) return;

    bool from_stream;
    if (stream_has && queue_has) {
      from_stream = stream_->Peek().arrival <= queued_.front().second.arrival;
    } else {
      from_stream = stream_has;
    }
    const double arrival = from_stream ? stream_->Peek().arrival
                                       : queued_.front().second.arrival;
    if (arrival > now_ + 1e-9) return;

    int key;
    core::Request r;
    if (from_stream) {
      r = stream_->Next();
      key = r.id;
      ++stream_consumed_;
    } else {
      std::tie(key, r) = queued_.front();
      queued_.pop_front();
    }
    ++stats_.requests;
    OWAN_COUNT("service.requests");
    // Online decisions happen at the request's own arrival timestamp on the
    // virtual clock; passthrough decides at the slot boundary.
    const double decision_time =
        options_.mode == ServiceMode::kOnline ? r.arrival : now_;
    DecideAndActivate(key, r, decision_time);
  }
}

void ControllerService::ExpireAndRetryPending() {
  if (options_.mode != ServiceMode::kOnline) return;
  admission_.GarbageCollect(now_);
  if (pending_.empty()) {
    admission_.ClearReleased();
    return;
  }

  std::deque<int> keep;
  for (int id : pending_) {
    Record* rec = FindRecord(id);
    if (admission_.WindowClosed(rec->request, now_)) {
      // The deadline window closed while waiting — a firm reject.
      FinalizeDecision(*rec, Verdict::kRejected, now_);
      ++stats_.pending_rejected;
      OWAN_COUNT("service.pending_rejected");
      if (!options_.retain_records) records_.erase(id);
    } else {
      keep.push_back(id);
    }
  }
  pending_ = std::move(keep);

  // Only a Release can turn a pending request admissible (windows only
  // shrink; residuals only grow when capacity comes back), so the queue is
  // re-offered exactly when that happened — never polled.
  if (admission_.capacity_released() && !pending_.empty()) {
    ++stats_.retry_rounds;
    std::deque<int> still;
    for (int id : pending_) {
      Record* rec = FindRecord(id);
      const Admission a = admission_.Offer(rec->request, now_);
      if (a == Admission::kAdmitted) {
        FinalizeDecision(*rec, Verdict::kAdmitted, now_);
        ++stats_.pending_admitted;
        OWAN_COUNT("service.pending_admitted");
        active_order_.push_back(id);
        demand_added_ += rec->request.size;
      } else if (a == Admission::kRejected) {
        FinalizeDecision(*rec, Verdict::kRejected, now_);
        ++stats_.pending_rejected;
        if (!options_.retain_records) records_.erase(id);
      } else {
        still.push_back(id);
      }
    }
    pending_ = std::move(still);
  }
  admission_.ClearReleased();
}

bool ControllerService::ShouldRecompute() const {
  if (force_recompute_) return true;
  const int64_t slot = static_cast<int64_t>(
      std::floor((now_ + 1e-9) / options_.slot_seconds));
  if (slot - last_recompute_slot_ >=
      static_cast<int64_t>(options_.max_stale_slots)) {
    return true;
  }
  return demand_added_ > options_.recompute_demand_frac *
                             std::max(last_recompute_demand_, 1e-9);
}

void ControllerService::RecordQueueDepth() {
  ++stats_.queue_depth[Log2Bucket(pending_.size())];
  OWAN_HISTO("service.queue_depth", ::owan::obs::Unit::kOps,
             static_cast<double>(pending_.size()));
}

void ControllerService::CloseRecovery(double at) {
  result_.recovery_seconds.push_back(at - recover_start_);
  OWAN_HISTO("sim.recovery_seconds", ::owan::obs::Unit::kSimSeconds,
             at - recover_start_);
  recovering_ = false;
}

void ControllerService::AddViolations(const std::vector<std::string>& v) {
  OWAN_COUNT_N("sim.invariant_violations", ::owan::obs::Unit::kOps, v.size());
  result_.invariant_violations.insert(result_.invariant_violations.end(),
                                     v.begin(), v.end());
}

optical::OpticalNetwork& ControllerService::MutablePlant() {
  if (!plant_) plant_ = std::make_unique<optical::OpticalNetwork>(wan_->optical);
  return *plant_;
}

bool ControllerService::ApplyFault(const fault::FaultEvent& e) {
  ++result_.fault_events;
  OWAN_COUNT("sim.fault_events");
  OWAN_INSTANT("sim", "fault.interrupt",
               ::owan::obs::TraceArg{"time", e.time},
               ::owan::obs::TraceArg{"type", static_cast<double>(e.type)});
  if (e.type == fault::FaultType::kControllerCrash) {
    controller_up_ = false;
    return false;
  }
  if (e.type == fault::FaultType::kControllerRecover) {
    controller_up_ = true;
    return false;
  }
  return fault::ApplyPlantEvent(e, MutablePlant());
}

void ControllerService::AfterFaults(bool plant_changed) {
  // The plant shrinks immediately; the topology recomputes on whatever
  // survives (with dark-port repair only if a controller is alive to do
  // it — §3.4).
  if (plant_changed) {
    topology_ = fault::RecomputeTopology(topology_, *plant_, controller_up_);
    force_recompute_ = true;
    if (!controller_up_) {
      PruneFrozenAllocations(frozen_, topology_, plant_->wavelength_capacity());
    }
  }
  if (!recovering_ && !active_order_.empty()) {
    recovering_ = true;
    recover_start_ = now_;
    recover_baseline_ = last_slot_rate_;
  }
}

void ControllerService::ApplyDueFaults() {
  const std::vector<fault::FaultEvent>& events = sim_.faults.events;
  bool any_event = false;
  bool plant_changed = false;
  while (next_fault_ < events.size() &&
         events[next_fault_].time <= now_ + 1e-9) {
    plant_changed |= ApplyFault(events[next_fault_++]);
    any_event = true;
  }
  if (any_event) AfterFaults(plant_changed);
}

void ControllerService::ReportFault(const fault::FaultEvent& e) {
  if (!e.IsPlantEvent()) {
    throw std::invalid_argument(
        "ControllerService::ReportFault: not a plant event");
  }
  if (parked_) ProgressSlot();  // the parked slot finishes first
  AfterFaults(ApplyFault(e));
}

bool ControllerService::ExecuteUpdate(const core::TeInput& input, double dur,
                                      core::TeOutput& output,
                                      std::set<sim::LinkKey>& changed,
                                      const update::IntentLog* wal) {
  // The plan starts at the interval head. If the update has not converged
  // by the interval's end — a fault event may truncate it — it safe-aborts
  // (rollback to the pre-update state) before the next Step applies the
  // fault.
  const optical::OpticalNetwork& plant = this->plant();
  update::ExecutorInput ein;
  ein.from = topology_;
  ein.plan = update::BuildUpdatePlan(topology_, *output.new_topology,
                                     installed_, output.allocations);
  ein.old_routes = installed_;
  ein.new_routes = output.allocations;
  ein.spare_ports.assign(static_cast<size_t>(plant.NumSites()), 0);
  for (net::NodeId s = 0; s < plant.NumSites(); ++s) {
    ein.spare_ports[static_cast<size_t>(s)] =
        std::max(0, plant.UsablePorts(s) - topology_.PortsUsed(s));
  }
  update::ExecutorOptions eopts;
  eopts.actuation = sim_.actuation;
  eopts.theta = plant.wavelength_capacity();
  update::UpdateExecutor ex(std::move(ein), eopts);
  // The executor is a pure function of these inputs and its log, so a
  // parked update resumes by replaying the log; it never parks twice.
  size_t crash_at = std::numeric_limits<size_t>::max();
  if (wal != nullptr) {
    ex.Replay(*wal);
  } else if (sim_.crash_after_wal_records >= 0) {
    crash_at = static_cast<size_t>(sim_.crash_after_wal_records);
  }
  if (!ex.StepUntil(dur, crash_at)) {
    if (ex.log().records.size() >= crash_at) {
      parked_ = std::make_unique<ParkedUpdate>(
          ParkedUpdate{std::move(output), ex.log()});
      return false;
    }
    ex.RequestAbort();
  }
  update::ExecResult res = ex.Finish();
  ++result_.updates_executed;
  result_.update_retries += res.stats.retries;
  result_.update_forced_ops += res.stats.forced_ops;
  result_.update_exec_seconds += res.makespan;
  for (const std::string& v : res.invariant_violations) {
    result_.invariant_violations.push_back(
        "update at t=" + std::to_string(now_) + ": " + v);
  }
  if (res.outcome == update::ExecOutcome::kConverged) {
    changed = sim::ChangedLinks(topology_, res.final_topology);
    stats_.topology_changes += topology_.DistanceTo(res.final_topology);
    topology_ = res.final_topology;
    // The realized routes (positional with this slot's allocations) are
    // what the data plane actually carries.
    output.allocations = res.final_routes;
    return true;
  }
  ++result_.update_aborts;
  OWAN_COUNT("sim.update_aborts");
  // Rolled back: the slot keeps the pre-update routes, matched to the live
  // demand set by transfer id.
  std::vector<core::TransferAllocation> reverted(input.demands.size());
  for (size_t i = 0; i < input.demands.size(); ++i) {
    reverted[i].id = input.demands[i].id;
    for (const core::TransferAllocation& a : res.final_routes) {
      if (a.id == input.demands[i].id) {
        reverted[i] = a;
        break;
      }
    }
  }
  output.allocations = std::move(reverted);
  return true;
}

bool ControllerService::Recompute(const core::TeInput& input, double dur,
                                  double total_demand, core::TeOutput& output,
                                  std::set<sim::LinkKey>& changed) {
  OWAN_SPAN(span, "service", "recompute");
  span.AddArg("active", static_cast<double>(input.demands.size()));
  const auto t0 = std::chrono::steady_clock::now();
  output = scheme_->Compute(input);
  const double compute_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  stats_.compute_seconds += compute_s;
  OWAN_HISTO("sim.compute_seconds", ::owan::obs::Unit::kSeconds, compute_s);
  return Install(input, dur, total_demand, output, changed, nullptr);
}

bool ControllerService::Install(const core::TeInput& input, double dur,
                                double total_demand, core::TeOutput& output,
                                std::set<sim::LinkKey>& changed,
                                const update::IntentLog* wal) {
  if (output.new_topology && !(*output.new_topology == topology_)) {
    if (sim_.execute_updates) {
      if (!ExecuteUpdate(input, dur, output, changed, wal)) return false;
    } else {
      changed = sim::ChangedLinks(topology_, *output.new_topology);
      stats_.topology_changes += topology_.DistanceTo(*output.new_topology);
      topology_ = *output.new_topology;
    }
  }
  if (sim_.execute_updates) installed_ = output.allocations;
  frozen_.clear();
  for (size_t i = 0;
       i < output.allocations.size() && i < input.demands.size(); ++i) {
    frozen_[active_order_[i]] = output.allocations[i];
  }
  ++stats_.recomputes;
  OWAN_COUNT("service.recomputes");
  last_recompute_slot_ = static_cast<int64_t>(
      std::floor((now_ + 1e-9) / options_.slot_seconds));
  last_recompute_demand_ = total_demand;
  demand_added_ = 0.0;
  force_recompute_ = false;
  return true;
}

void ControllerService::ProgressSlot() {
  OWAN_SPAN(slot_span, "sim", "slot");
  slot_span.AddArg("now", now_);
  slot_span.AddArg("active", static_cast<double>(active_order_.size()));

  // The interval runs to the slot boundary unless a fault event lands
  // first — then it ends early, delivered bytes pro-rate over the truncated
  // interval, and the next Step recomputes.
  double dur = options_.slot_seconds;
  if (next_fault_ < sim_.faults.events.size()) {
    const double te = sim_.faults.events[next_fault_].time;
    if (te < now_ + dur - 1e-9) dur = te - now_;
  }

  core::TeInput input;
  input.topology = &topology_;
  input.optical = &plant();
  input.slot_seconds = options_.slot_seconds;
  input.now = now_;
  input.demands.reserve(active_order_.size());
  double total_demand = 0.0;
  for (int key : active_order_) {
    const Record* rec = FindRecord(key);
    core::TransferDemand d;
    d.id = rec->request.id;
    d.src = rec->request.src;
    d.dst = rec->request.dst;
    d.remaining = rec->remaining;
    d.rate_cap = rec->remaining / options_.slot_seconds;
    d.deadline = rec->request.deadline;
    d.slots_waited = rec->slots_waited;
    input.demands.push_back(d);
    total_demand += rec->remaining;
  }

  core::TeOutput output;
  std::set<sim::LinkKey> changed;
  if (parked_) {
    // Finish the slot the crash hook parked: the same input and the kept
    // TE output, with the executor replayed from its log.
    const std::unique_ptr<ParkedUpdate> parked = std::move(parked_);
    output = std::move(parked->output);
    Install(input, dur, total_demand, output, changed, &parked->wal);
  } else if (controller_up_ && (options_.mode == ServiceMode::kPassthrough ||
                                ShouldRecompute())) {
    if (!Recompute(input, dur, total_demand, output, changed)) return;
  } else {
    // Coast: the data plane keeps the last computed rates — between batched
    // recomputes, or while the controller is down. Transfers that arrived
    // since then wait (online, their stall time is the price of staleness,
    // bounded by max_stale_slots).
    output.allocations.reserve(input.demands.size());
    for (size_t i = 0; i < input.demands.size(); ++i) {
      auto it = frozen_.find(active_order_[i]);
      core::TransferAllocation a;
      a.id = input.demands[i].id;
      if (it != frozen_.end()) a = it->second;
      output.allocations.push_back(std::move(a));
    }
    ++stats_.coasts;
    OWAN_COUNT("service.coasts");
  }

  ++stats_.slots;
  OWAN_COUNT("sim.slots");
  double slot_rate = 0.0;
  for (const core::TransferAllocation& a : output.allocations) {
    slot_rate += a.TotalRate();
  }
  stats_.slot_throughput.emplace_back(now_, slot_rate);
  OWAN_HISTO("sim.slot_rate_gbps", ::owan::obs::Unit::kGigabits, slot_rate);
  if (recovering_ && slot_rate + 1e-9 >= recover_baseline_) {
    CloseRecovery(now_);
  }
  last_slot_rate_ = slot_rate;

  if (invariant_checks_) {
    AddViolations(fault::InvariantChecker::CheckSlot(
        topology_, plant(), input.demands, output.allocations));
  }

  // Named, so the conditional below stays an lvalue: with a temporary on
  // one side it would copy every transfer's allocation.
  static const core::TransferAllocation kNoAllocation;
  const bool truncated = dur < options_.slot_seconds - 1e-9;
  double slot_delivered = 0.0;
  double slot_lost = 0.0;
  std::vector<int> still_active;
  still_active.reserve(active_order_.size());
  for (size_t ai = 0; ai < active_order_.size(); ++ai) {
    const int key = active_order_[ai];
    Record& rec = *FindRecord(key);
    const core::TransferAllocation& alloc =
        ai < output.allocations.size() ? output.allocations[ai]
                                       : kNoAllocation;
    const sim::SlotProgress p = sim::ProgressTransfer(
        rec.request, rec.remaining, alloc, changed, now_, dur,
        options_.slot_seconds, sim_.reconfig_penalty_s);

    if (rec.request.HasDeadline()) {
      rec.delivered_by_deadline += std::min(p.deadline_part, p.delivered);
    }
    rec.delivered += p.delivered;
    stats_.delivered_gigabits += p.delivered;
    slot_delivered += p.delivered;
    if (truncated) {
      const double lost = std::max(
          0.0, std::min(p.full_delivered, rec.remaining) - p.delivered);
      result_.gigabits_lost_to_faults += lost;
      slot_lost += lost;
    }
    if (invariant_checks_) {
      AddViolations(checker_.ObserveTransfer(rec.request.id, rec.delivered,
                                             rec.request.size));
    }

    if (p.finishes) {
      rec.completed = true;
      rec.completed_at = p.completed_at;
      FinalizeCompletion(key, rec);
    } else {
      rec.remaining -= p.delivered;
      rec.slots_waited = p.delivered > 1e-9 ? 0 : rec.slots_waited + 1;
      if (p.total_rate <= 1e-9) rec.stalled_s += dur;
      still_active.push_back(key);
    }
  }
  active_order_ = std::move(still_active);
  OWAN_HISTO("sim.delivered_gigabits", ::owan::obs::Unit::kGigabits,
             slot_delivered);
  if (truncated) {
    OWAN_HISTO("sim.invalidated_gigabits", ::owan::obs::Unit::kGigabits,
               slot_lost);
  }
  if (recovering_ && active_order_.empty()) CloseRecovery(now_ + dur);
  RecordQueueDepth();
  now_ += dur;
}

bool ControllerService::Step() {
  // A parked slot finishes before anything else runs.
  if (parked_) {
    ProgressSlot();
    return true;
  }
  if (now_ >= options_.max_time_s) return false;

  ApplyDueFaults();
  ExpireAndRetryPending();
  // Admission is a controller action: arrivals queue while it is down.
  if (controller_up_) IngestArrivals();

  if (active_order_.empty()) {
    const bool arrivals_left =
        (stream_ && stream_consumed_ < stream_limit_) || !queued_.empty();
    const bool faults_left = next_fault_ < sim_.faults.events.size();
    if (!arrivals_left && !faults_left && pending_.empty()) return false;
    // Jump to the slot containing the next arrival, but never past a
    // pending fault event (a controller recovery may unblock admission);
    // with only pending requests left, step one slot at a time until their
    // windows expire.
    double target = now_ + options_.slot_seconds;
    if (arrivals_left) {
      const double arr = stream_ && stream_consumed_ < stream_limit_ &&
                                 (queued_.empty() ||
                                  stream_->Peek().arrival <=
                                      queued_.front().second.arrival)
                             ? stream_->Peek().arrival
                             : queued_.front().second.arrival;
      const double slots_ahead = std::floor(arr / options_.slot_seconds);
      target = std::max(now_ + options_.slot_seconds,
                        slots_ahead * options_.slot_seconds);
    }
    if (faults_left) {
      target = std::min(target, sim_.faults.events[next_fault_].time);
    }
    now_ = target;
    return true;
  }

  ProgressSlot();
  return true;
}

void ControllerService::Run() {
  OWAN_SPAN(span, "service", "run");
  while (Step()) {
  }
  // An episode still open when the loop stops closes at the final clock.
  if (recovering_) CloseRecovery(now_);
}

void ControllerService::RunUntilIngested(uint64_t n) {
  while (stats_.requests < n && Step()) {
  }
}

uint64_t ControllerService::Fingerprint() const {
  uint64_t acc = fp_acc_;
  Mix(acc, Bits(now_));
  Mix(acc, stats_.slots);
  for (int key : active_order_) {
    const Record& rec = records_.at(key);
    Mix(acc, static_cast<uint64_t>(rec.request.id));
    Mix(acc, Bits(rec.remaining));
  }
  for (int id : pending_) Mix(acc, static_cast<uint64_t>(id));
  return acc;
}

sim::TransferRecord ControllerService::Outcome(const Record& rec) {
  sim::TransferRecord t;
  t.request = rec.request;
  t.admitted = rec.verdict == Verdict::kAdmitted;
  t.completed = rec.completed;
  t.completed_at = rec.completed_at;
  t.delivered = rec.delivered;
  t.delivered_by_deadline = rec.delivered_by_deadline;
  t.stalled_s = rec.stalled_s;
  return t;
}

sim::SimResult ControllerService::ToSimResult() const& {
  sim::SimResult result = result_;
  FinishSimResult(result);
  return result;
}

sim::SimResult ControllerService::ToSimResult() && {
  sim::SimResult result = std::move(result_);
  FinishSimResult(result);
  return result;
}

void ControllerService::FinishSimResult(sim::SimResult& result) const {
  if (batch_) {
    // The records left are the transfers still active when the loop ended.
    for (const auto& [key, rec] : records_) {
      result.transfers[static_cast<size_t>(key)] = Outcome(rec);
    }
  } else {
    if (!options_.retain_records) {
      throw std::logic_error(
          "ControllerService::ToSimResult needs retain_records");
    }
    result.transfers.reserve(submission_order_.size());
    for (int key : submission_order_) {
      result.transfers.push_back(Outcome(records_.at(key)));
    }
  }
  result.makespan = stats_.makespan;
  for (sim::TransferRecord& t : result.transfers) {
    // Every unfinished transfer that was served (in passthrough, every
    // one) counts as completing at the cap. Online rejects/pendings never
    // ran — they keep completed_at = -1.
    if (!t.completed &&
        (options_.mode == ServiceMode::kPassthrough || t.admitted)) {
      t.completed_at = options_.max_time_s;
      result.makespan = std::max(result.makespan, options_.max_time_s);
    }
  }
  result.slots = static_cast<int>(stats_.slots);
  result.topology_changes = static_cast<int>(stats_.topology_changes);
  result.compute_seconds = stats_.compute_seconds;
  result.slot_throughput = stats_.slot_throughput;
}

std::string ControllerService::Checkpoint() const {
  std::ostringstream os;
  os.precision(17);
  os << "owan-checkpoint v6\n";
  os << "now " << now_ << "\n";
  os << "mode " << static_cast<int>(options_.mode) << "\n";
  os << "svc-counters " << stats_.requests << " " << stats_.admitted << " "
     << stats_.rejected << " " << stats_.pending_enqueued << " "
     << stats_.pending_admitted << " " << stats_.pending_rejected << " "
     << stats_.completed << " " << stats_.slots << " " << stats_.recomputes
     << " " << stats_.coasts << " " << stats_.retry_rounds << " "
     << stats_.topology_changes << "\n";
  os << "svc-accum " << stats_.delivered_gigabits << " " << stats_.makespan
     << "\n";
  os << "svc-latency";
  for (uint64_t v : stats_.decision_latency_slots) os << " " << v;
  os << "\n";
  os << "svc-qdepth";
  for (uint64_t v : stats_.queue_depth) os << " " << v;
  os << "\n";
  os << "svc-clock " << last_recompute_slot_ << " " << demand_added_ << " "
     << last_recompute_demand_ << " " << force_recompute_ << "\n";
  os << "fingerprint " << fp_acc_ << "\n";
  if (stream_) os << "stream " << stream_consumed_ << "\n";
  if (!sim_.faults.empty()) {
    os << "faults " << next_fault_ << " " << controller_up_ << "\n";
  }
  // The run-level metrics of ToSimResult(): faults, recovery episodes (the
  // open one included), the update counters once an update ran, and the
  // invariant violations.
  os << "sim-faults " << result_.fault_events << " "
     << result_.gigabits_lost_to_faults << " " << recovering_ << " "
     << recover_start_ << " " << recover_baseline_ << " " << last_slot_rate_
     << " " << result_.recovery_seconds.size();
  for (double s : result_.recovery_seconds) os << " " << s;
  os << "\n";
  if (result_.updates_executed > 0) {
    os << "sim-updates " << result_.updates_executed << " "
       << result_.update_aborts << " " << result_.update_retries << " "
       << result_.update_forced_ops << " " << result_.update_exec_seconds
       << "\n";
  }
  for (const std::string& v : result_.invariant_violations) {
    os << "sim-violation " << v << "\n";
  }
  WriteTopology(os, "topology", topology_);
  if (plant_) WritePlantFailures(os, *plant_);
  for (const auto& [key, r] : queued_) {
    os << "qreq " << r.id << " " << r.src << " " << r.dst << " " << r.size
       << " " << r.arrival << " " << r.deadline << "\n";
  }
  // Records in a deterministic order: submission order when retained,
  // ascending id otherwise (only live records exist then).
  std::vector<int> rec_order;
  if (options_.retain_records) {
    rec_order = submission_order_;
  } else {
    for (const auto& [id, rec] : records_) rec_order.push_back(id);
    std::sort(rec_order.begin(), rec_order.end());
  }
  for (int id : rec_order) {
    const Record& rec = records_.at(id);
    os << "rec " << id << " " << rec.request.src << " " << rec.request.dst
       << " " << rec.request.size << " " << rec.request.arrival << " "
       << rec.request.deadline << " " << static_cast<int>(rec.verdict) << " "
       << rec.decided_at << " " << rec.remaining << " " << rec.delivered
       << " " << rec.delivered_by_deadline << " " << rec.stalled_s << " "
       << rec.slots_waited << " " << rec.completed << " " << rec.completed_at
       << "\n";
  }
  os << "active " << active_order_.size();
  for (int id : active_order_) os << " " << id;
  os << "\n";
  os << "pendq " << pending_.size();
  for (int id : pending_) os << " " << id;
  os << "\n";
  for (const auto& [t, rate] : stats_.slot_throughput) {
    os << "tp " << t << " " << rate << "\n";
  }
  for (const auto& [id, alloc] : frozen_) {
    WriteAllocation(os, "froute", id, alloc);
  }
  for (const core::TransferAllocation& a : installed_) {
    WriteAllocation(os, "iroute", a.id, a);
  }
  if (parked_) {
    // The interrupted update: its target topology, its new routes and the
    // intent log; the old routes are the installed ones above.
    WriteTopology(os, "ptopology", *parked_->output.new_topology);
    for (const core::TransferAllocation& a : parked_->output.allocations) {
      WriteAllocation(os, "proute", a.id, a);
    }
    for (const update::IntentRecord& r : parked_->wal.records) {
      os << "pwal " << update::IntentLog::RecordToString(r) << "\n";
    }
  }
  admission_.Checkpoint(os);
  return os.str();
}

ControllerService ControllerService::Restore(
    const topo::Wan* wan, std::unique_ptr<core::TeScheme> scheme,
    const std::string& checkpoint, ServiceOptions options) {
  ControllerService c(wan, std::move(scheme), options);
  c.RestoreState(checkpoint);
  return c;
}

ControllerService ControllerService::Restore(
    const topo::Wan* wan, std::unique_ptr<core::TeScheme> scheme,
    const std::string& checkpoint, const sim::SimOptions& sim) {
  ControllerService c(wan, std::move(scheme), sim);
  c.RestoreState(checkpoint);
  return c;
}

void ControllerService::RestoreState(const std::string& checkpoint) {
  std::istringstream is(checkpoint);
  std::string line;
  if (!std::getline(is, line) || line != "owan-checkpoint v6") {
    throw std::invalid_argument(
        "ControllerService::Restore: bad checkpoint header");
  }
  auto parked = [this]() -> ParkedUpdate& {
    if (!parked_) parked_ = std::make_unique<ParkedUpdate>();
    return *parked_;
  };
  core::Topology topo;
  // The topology and the allocation that link and path lines extend.
  core::Topology* links = nullptr;
  core::TransferAllocation* route = nullptr;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "now") {
      ls >> now_;
    } else if (tag == "mode") {
      int m = 0;
      ls >> m;
      options_.mode = static_cast<ServiceMode>(m);
    } else if (tag == "svc-counters") {
      ls >> stats_.requests >> stats_.admitted >> stats_.rejected >>
          stats_.pending_enqueued >> stats_.pending_admitted >>
          stats_.pending_rejected >> stats_.completed >> stats_.slots >>
          stats_.recomputes >> stats_.coasts >> stats_.retry_rounds >>
          stats_.topology_changes;
    } else if (tag == "svc-accum") {
      ls >> stats_.delivered_gigabits >> stats_.makespan;
    } else if (tag == "svc-latency") {
      for (uint64_t& v : stats_.decision_latency_slots) ls >> v;
    } else if (tag == "svc-qdepth") {
      for (uint64_t& v : stats_.queue_depth) ls >> v;
    } else if (tag == "svc-clock") {
      ls >> last_recompute_slot_ >> demand_added_ >> last_recompute_demand_ >>
          force_recompute_;
    } else if (tag == "fingerprint") {
      ls >> fp_acc_;
    } else if (tag == "stream") {
      ls >> stream_resume_cursor_;
    } else if (tag == "faults") {
      ls >> next_fault_ >> controller_up_;
    } else if (tag == "sim-faults") {
      size_t episodes = 0;
      ls >> result_.fault_events >> result_.gigabits_lost_to_faults >>
          recovering_ >> recover_start_ >> recover_baseline_ >>
          last_slot_rate_ >> episodes;
      for (size_t k = 0; k < episodes && !ls.fail(); ++k) {
        ls >> result_.recovery_seconds.emplace_back();
      }
    } else if (tag == "sim-updates") {
      ls >> result_.updates_executed >> result_.update_aborts >>
          result_.update_retries >> result_.update_forced_ops >>
          result_.update_exec_seconds;
    } else if (tag == "sim-violation") {
      std::string& text = result_.invariant_violations.emplace_back();
      std::getline(ls, text);
      text.erase(0, 1);  // the separating space
    } else if (tag == "topology" || tag == "ptopology") {
      int n = 0;
      ls >> n;
      if (tag == "topology") {
        links = &(topo = core::Topology(n));
      } else {
        links = &parked().output.new_topology.emplace(n);
      }
    } else if (tag == "link") {
      int u, v, units;
      ls >> u >> v >> units;
      if (links == nullptr) {
        throw std::invalid_argument(
            "ControllerService::Restore: link before topology");
      }
      if (!ls.fail()) links->AddUnits(u, v, units);
    } else if (tag == "plant") {
      MutablePlant();
    } else if (tag == "fiber-failed") {
      net::EdgeId e;
      ls >> e;
      if (!ls.fail()) MutablePlant().FailFiber(e);
    } else if (tag == "fiber-degraded") {
      net::EdgeId e;
      double db = 0.0;
      ls >> e >> db;
      if (!ls.fail()) MutablePlant().DegradeFiber(e, db);
    } else if (tag == "site-failed") {
      net::NodeId v;
      ls >> v;
      if (!ls.fail()) MutablePlant().FailSite(v);
    } else if (tag == "ports-failed") {
      net::NodeId v;
      int k;
      ls >> v >> k;
      if (!ls.fail()) MutablePlant().FailPorts(v, k);
    } else if (tag == "regens-failed") {
      net::NodeId v;
      int k;
      ls >> v >> k;
      if (!ls.fail()) MutablePlant().FailRegens(v, k);
    } else if (tag == "qreq") {
      core::Request r;
      ls >> r.id >> r.src >> r.dst >> r.size >> r.arrival >> r.deadline;
      if (!ls.fail()) queued_.emplace_back(r.id, r);
    } else if (tag == "rec") {
      Record rec;
      int id = -1, verdict = 0;
      ls >> id >> rec.request.src >> rec.request.dst >> rec.request.size >>
          rec.request.arrival >> rec.request.deadline >> verdict >>
          rec.decided_at >> rec.remaining >> rec.delivered >>
          rec.delivered_by_deadline >> rec.stalled_s >> rec.slots_waited >>
          rec.completed >> rec.completed_at;
      if (!ls.fail()) {
        rec.request.id = id;
        rec.verdict = static_cast<Verdict>(verdict);
        records_.emplace(id, std::move(rec));
        if (options_.retain_records) submission_order_.push_back(id);
      }
    } else if (tag == "active") {
      size_t n = 0;
      ls >> n;
      for (size_t k = 0; k < n && !ls.fail(); ++k) {
        int id;
        ls >> id;
        active_order_.push_back(id);
      }
    } else if (tag == "pendq") {
      size_t n = 0;
      ls >> n;
      for (size_t k = 0; k < n && !ls.fail(); ++k) {
        int id;
        ls >> id;
        pending_.push_back(id);
      }
    } else if (tag == "tp") {
      double t = 0.0, rate = 0.0;
      ls >> t >> rate;
      if (!ls.fail()) stats_.slot_throughput.emplace_back(t, rate);
    } else if (tag == "froute" || tag == "iroute" || tag == "proute") {
      int id = -1;
      ls >> id;
      if (tag == "froute") {
        route = &frozen_[id];
      } else if (tag == "iroute") {
        route = &installed_.emplace_back();
      } else {
        route = &parked().output.allocations.emplace_back();
      }
      route->id = id;
    } else if (tag == "path") {
      if (route == nullptr) {
        throw std::invalid_argument(
            "ControllerService::Restore: path before route");
      }
      core::PathAllocation pa;
      if (ReadPathBody(ls, pa)) route->paths.push_back(std::move(pa));
    } else if (tag == "pwal") {
      std::string rest;
      std::getline(ls, rest);
      parked().wal.records.push_back(update::IntentLog::RecordFromString(rest));
    } else if (!admission_.RestoreLine(tag, ls)) {
      throw std::invalid_argument(
          "ControllerService::Restore: unknown tag: " + tag);
    }
    if (ls.fail()) {
      throw std::invalid_argument(
          "ControllerService::Restore: corrupt line: " + line);
    }
  }
  if (parked_ && (!parked_->output.new_topology || !sim_.execute_updates)) {
    throw std::invalid_argument(
        "ControllerService::Restore: a parked update needs its target "
        "topology and execute_updates");
  }
  if (topo.NumSites() > 0) topology_ = std::move(topo);
  admission_.FinishRestore();
  // The standby completes the crashed slot before accepting new work.
  if (parked_) ProgressSlot();
}

}  // namespace owan::service
