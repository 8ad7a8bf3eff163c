#ifndef OWAN_SERVICE_SERVICE_H_
#define OWAN_SERVICE_SERVICE_H_

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/te_scheme.h"
#include "core/topology.h"
#include "fault/invariant_checker.h"
#include "service/admission.h"
#include "sim/progress.h"
#include "sim/simulator.h"
#include "topo/topologies.h"
#include "update/intent_log.h"
#include "workload/stream.h"

namespace owan::service {

// How the service makes admission decisions and paces recomputes.
enum class ServiceMode : uint8_t {
  // Batch semantics: every arrival is admitted via the TE scheme's own
  // Admit hook at slot boundaries and every slot recomputes. This is the
  // mode sim::RunSimulation runs the loop in.
  kPassthrough = 0,
  // Streaming: the AdmissionController gates deadline traffic at arrival
  // time, rejected-for-now requests wait in the pending queue, and the TE
  // scheme only recomputes when the batched-staleness triggers fire.
  kOnline = 1,
};

struct ServiceOptions {
  // Finite and positive; the admission ledger's constructor throws
  // std::invalid_argument otherwise.
  double slot_seconds = 300.0;
  double max_time_s = 72.0 * 3600.0;
  ServiceMode mode = ServiceMode::kOnline;

  int admission_k_paths = 3;  // paths per site pair the ledger packs over

  // ---- bounded-staleness recompute triggers (kOnline) ----
  // Recompute when newly-admitted demand since the last recompute exceeds
  // this fraction of the demand the last recompute saw...
  double recompute_demand_frac = 0.25;
  // ...or when this many slots have been coasted on frozen allocations.
  int max_stale_slots = 4;

  // Keep per-request records after they finalize so ToSimResult() can
  // reconstruct a full sim::SimResult. Turn off for multi-million-request
  // soaks: finalized records fold into the fingerprint and aggregate stats,
  // then free their memory.
  bool retain_records = true;
};

// Aggregate outcome counters — everything the soak/bench path needs without
// retaining per-request records.
struct ServiceStats {
  uint64_t requests = 0;        // arrivals ingested
  uint64_t admitted = 0;        // includes pending later admitted
  uint64_t rejected = 0;        // includes pending later expired
  uint64_t pending_enqueued = 0;
  uint64_t pending_admitted = 0;  // resolved from the queue
  uint64_t pending_rejected = 0;  // expired in the queue
  uint64_t completed = 0;
  uint64_t slots = 0;
  uint64_t recomputes = 0;  // slots that ran scheme.Compute
  uint64_t coasts = 0;      // slots served from frozen allocations
  uint64_t retry_rounds = 0;
  int64_t topology_changes = 0;
  double compute_seconds = 0.0;  // wall-clock inside scheme.Compute
  double delivered_gigabits = 0.0;
  double makespan = 0.0;

  // Decision latency in whole slots from arrival to final verdict
  // (bucket 15 = 15+). Immediate decisions land in bucket 0.
  std::array<uint64_t, 16> decision_latency_slots{};
  // Pending-queue depth sampled once per progressed slot, log2 buckets:
  // 0, 1, 2-3, 4-7, ... (bucket 15 = 16384+).
  std::array<uint64_t, 16> queue_depth{};

  // Per-slot (start time, total allocated Gbps); fault interrupts add
  // sub-slot entries.
  std::vector<std::pair<double, double>> slot_throughput;
};

// The Owan controller (§3.1): a persistent event loop around a TE scheme
// on a deterministic virtual clock. Each slot it computes the network
// state, applies it (optionally through the update executor) and
// progresses transfers at the allocated rates. Online, it consumes a
// request stream, gates arrivals through admission control and recomputes
// the TE state in batches instead of every slot. In passthrough mode it is
// the batch simulator (sim::RunSimulation), and then also owns a mutable
// plant: fault events interrupt slots, a crashed controller leaves the
// data plane on frozen rates, updates run through the update executor, and
// every interval is checked against fault::InvariantChecker. Epoch
// snapshots ("owan-checkpoint v6") capture the request-stream, plant
// failure, fault-cursor and in-flight update state, so a standby restored
// from one resumes bit-identically (§3.4).
//
// No wall time enters any decision: arrivals, admissions, retries, and
// recomputes are all keyed to the virtual clock, so two runs with the same
// seed produce the same Fingerprint() — which is exactly what the CI soak
// asserts.
class ControllerService {
 public:
  // Online or passthrough per `options`, with no fault schedule, update
  // execution or invariant checks.
  ControllerService(const topo::Wan* wan,
                    std::unique_ptr<core::TeScheme> scheme,
                    ServiceOptions options = {});
  // A passthrough service fed by Submit() with the settings of a batch
  // run: `sim` supplies the slot timing, the fault schedule and update
  // execution (the actuation model, the crash hook), and every interval is
  // checked against fault::InvariantChecker. For callers that interleave
  // Submit, ReportFault and Checkpoint with Step.
  ControllerService(const topo::Wan* wan,
                    std::unique_ptr<core::TeScheme> scheme,
                    const sim::SimOptions& sim);
  // The batch simulator: passthrough mode driving the caller's scheme over
  // `requests` exactly as given (ids may repeat, arrivals need not be
  // sorted; a request is admitted once it and every request before it has
  // arrived). `sim` supplies the slot timing plus the fault schedule and
  // update execution settings, and intervals are checked, as above. `wan`
  // must outlive the service; the plant is copied only when the first
  // plant fault lands. Finished transfers go straight into the result
  // ToSimResult() returns.
  ControllerService(const topo::Wan* wan, core::TeScheme& scheme,
                    const std::vector<core::Request>& requests,
                    const sim::SimOptions& sim);
  ControllerService(ControllerService&&) = default;

  // Attaches the seeded arrival stream; the loop pulls requests lazily as
  // the virtual clock reaches their arrival times, up to `max_requests`.
  // After Restore(), re-attach the same params/limit: the stream is
  // fast-forwarded to the checkpointed cursor.
  void AttachStream(const workload::StreamParams& params,
                    uint64_t max_requests);

  // Enqueues one explicit request (must be offered in non-decreasing
  // arrival order). Usable alongside or instead of a stream.
  void Submit(const core::Request& r);

  // One event-loop iteration: one interval, one idle clock jump, or the
  // rest of a slot whose update the crash hook parked. Returns false when
  // all attached work is drained.
  bool Step();
  // Runs the event loop until all attached work is decided and drained, or
  // the virtual clock hits max_time_s. Resumable: more Submits (or a
  // Restore) followed by another Run continue the same timeline.
  void Run();
  // Runs until at least `n` requests have been ingested in total, then
  // stops at the next slot boundary — the crash-point hook for
  // checkpoint/restore tests. Run() continues afterwards.
  void RunUntilIngested(uint64_t n);

  // Applies a plant failure or repair the optical layer reports, at now():
  // the step a scheduled plant event takes (the plant is copied at the
  // first one; fault::ApplyPlantEvent; the topology is re-realized over
  // the survivors, re-pairing dark ports while the controller is up), and
  // the next slot recomputes. A repeated or stale report changes nothing;
  // a parked slot finishes first. Controller crash/recover events come
  // only from the fault schedule.
  // Online admission keeps booking against the default topology after a
  // report: the ledger does not follow the plant.
  void ReportFault(const fault::FaultEvent& e);

  const ServiceStats& stats() const { return stats_; }
  double now() const { return now_; }
  const core::Topology& topology() const { return topology_; }
  // The plant with every fault applied so far.
  const optical::OpticalNetwork& plant() const {
    return plant_ ? *plant_ : wan_->optical;
  }
  // True while a crashed update holds its slot (see
  // sim::SimOptions::crash_after_wal_records).
  bool update_parked() const { return parked_ != nullptr; }
  const AdmissionController& admission() const { return admission_; }
  uint64_t ingested() const { return stats_.requests; }
  int active_transfers() const { return static_cast<int>(active_order_.size()); }
  int pending_requests() const { return static_cast<int>(pending_.size()); }

  // Order-independent-of-wall-time digest of every decision and completion
  // plus the live in-flight state. Equal across a crash/restore boundary
  // and across same-seed reruns.
  uint64_t Fingerprint() const;

  // The batch simulator's result view (requires retain_records, or the
  // batch constructor). The rvalue overload hands the result over without
  // copying it.
  sim::SimResult ToSimResult() const&;
  sim::SimResult ToSimResult() &&;

  // Force the next progressed slot to recompute (the fault-event trigger).
  void ForceRecompute() { force_recompute_ = true; }

  // ---- epoch snapshots ("owan-checkpoint v6") ----
  // No wall-clock value enters a checkpoint, so two same-seed runs write
  // identical bytes.
  std::string Checkpoint() const;
  // Rebuilds a service from a checkpoint, with the options the original
  // was built with. A slot parked mid-update finishes before Restore
  // returns, so the standby is indistinguishable from a controller that
  // never crashed.
  static ControllerService Restore(const topo::Wan* wan,
                                   std::unique_ptr<core::TeScheme> scheme,
                                   const std::string& checkpoint,
                                   ServiceOptions options = {});
  static ControllerService Restore(const topo::Wan* wan,
                                   std::unique_ptr<core::TeScheme> scheme,
                                   const std::string& checkpoint,
                                   const sim::SimOptions& sim);

 private:
  enum class Verdict : uint8_t {
    kUndecided = 0,
    kAdmitted = 1,
    kPending = 2,
    kRejected = 3,
  };

  struct Record {
    core::Request request;
    Verdict verdict = Verdict::kUndecided;
    double decided_at = 0.0;
    double remaining = 0.0;
    double delivered = 0.0;
    double delivered_by_deadline = 0.0;
    double stalled_s = 0.0;
    int slots_waited = 0;
    bool completed = false;
    double completed_at = -1.0;
  };

  // A slot whose executed update the crash hook stopped: the TE output it
  // was installing and the executor's write-ahead intent log so far.
  struct ParkedUpdate {
    core::TeOutput output;
    update::IntentLog wal;
  };

  ControllerService(const topo::Wan* wan, core::TeScheme* scheme,
                    ServiceOptions options);

  void RestoreState(const std::string& checkpoint);
  optical::OpticalNetwork& MutablePlant();
  // One fault event's effect on the controller state; true when the plant
  // changed.
  bool ApplyFault(const fault::FaultEvent& e);
  void AfterFaults(bool plant_changed);
  void ApplyDueFaults();
  void IngestArrivals();
  void DecideAndActivate(int key, const core::Request& r,
                         double decision_time);
  void ExpireAndRetryPending();
  void ProgressSlot();
  // Compute + Install. Both return false when the update parked.
  bool Recompute(const core::TeInput& input, double dur, double total_demand,
                 core::TeOutput& output, std::set<sim::LinkKey>& changed);
  // Applies a computed TE output: the topology change (executed, or at
  // once), the installed and frozen routes, the recompute bookkeeping.
  // With `wal`, a parked update resumes from its log instead.
  bool Install(const core::TeInput& input, double dur, double total_demand,
               core::TeOutput& output, std::set<sim::LinkKey>& changed,
               const update::IntentLog* wal);
  bool ExecuteUpdate(const core::TeInput& input, double dur,
                     core::TeOutput& output, std::set<sim::LinkKey>& changed,
                     const update::IntentLog* wal);
  bool ShouldRecompute() const;
  void FinalizeDecision(Record& rec, Verdict v, double decision_time);
  void FinalizeCompletion(int key, Record& rec);
  void RecordQueueDepth();
  void CloseRecovery(double at);
  void AddViolations(const std::vector<std::string>& v);
  void FinishSimResult(sim::SimResult& result) const;
  static sim::TransferRecord Outcome(const Record& rec);

  Record* FindRecord(int key);

  const topo::Wan* wan_;
  std::unique_ptr<core::TeScheme> owned_scheme_;
  core::TeScheme* scheme_;
  ServiceOptions options_;
  // Fault schedule, update execution and reconfiguration penalty; the slot
  // timing lives in options_.
  sim::SimOptions sim_;
  // Post-interval fault::InvariantChecker checks: on for the SimOptions
  // constructors, off for the ServiceOptions one.
  bool invariant_checks_ = false;

  core::Topology topology_;
  // The plant with faults applied: null (read wan_->optical) until the
  // first plant fault.
  std::unique_ptr<optical::OpticalNetwork> plant_;
  AdmissionController admission_;
  // Per-transfer state by key: the request id, or for the batch
  // constructor the request's index.
  std::unordered_map<int, Record> records_;
  // Demand admitted since the last recompute — the only thing the
  // staleness trigger reads.
  double demand_added_ = 0.0;

  // Arrival sources: the optional seeded stream plus the explicit queue of
  // (key, request).
  std::optional<workload::ArrivalStream> stream_;
  uint64_t stream_limit_ = 0;
  uint64_t stream_consumed_ = 0;
  // Cursor recovered from a checkpoint before AttachStream is called.
  uint64_t stream_resume_cursor_ = 0;
  std::deque<std::pair<int, core::Request>> queued_;

  double now_ = 0.0;
  std::vector<int> active_order_;   // activation order — drives Compute
  std::deque<int> pending_;         // admission-pending, FIFO
  // Last computed rates by record key: what the data plane keeps
  // forwarding between recomputes and while the controller is down.
  std::map<int, core::TransferAllocation> frozen_;
  std::vector<int> submission_order_;  // all keys ever seen (retain only)

  int64_t last_recompute_slot_ = -(1 << 30);
  double last_recompute_demand_ = 0.0;
  bool force_recompute_ = false;

  // ---- faults, updates and the batch simulator's run ----
  bool batch_ = false;
  // Outcomes by input position (batch constructor only), written as
  // transfers finish (their records are dropped then), plus the fault,
  // recovery, update and violation metrics of the run.
  sim::SimResult result_;
  size_t next_fault_ = 0;  // cursor into sim_.faults
  bool controller_up_ = true;
  // Routes in force on the plant: the old routes an executed update drains.
  std::vector<core::TransferAllocation> installed_;
  // Set by the crash hook; the next Step (or Restore) finishes the slot.
  std::unique_ptr<ParkedUpdate> parked_;
  fault::InvariantChecker checker_;
  // Recovery episode: opened when a fault batch lands on live transfers,
  // closed when allocated rate regains its pre-fault level or the affected
  // transfers drain.
  bool recovering_ = false;
  double recover_start_ = 0.0;
  double recover_baseline_ = 0.0;
  double last_slot_rate_ = 0.0;

  ServiceStats stats_;
  uint64_t fp_acc_ = 14695981039346656037ULL;  // FNV-1a offset basis
};

}  // namespace owan::service

#endif  // OWAN_SERVICE_SERVICE_H_
