#include "bench_core.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>

#include "fault/fault_generator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "te/greedy.h"
#include "util/rng.h"

namespace owan::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// SplitMix64 finalizer: one independent sub-seed per generated input, so
// changing how one input is drawn never shifts another's stream.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed ^ (stream * 0x9e3779b97f4a7c15ULL);
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void Mix(uint64_t& acc, uint64_t v) {
  acc ^= v;
  acc *= 1099511628211ULL;
}

uint64_t Bits(double d) {
  uint64_t b = 0;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

// Keeps a seeded choice of `count` failure episodes (a failure and its
// repair) of a generated schedule. A failure still open at `end_s` gets its
// repair there, so no component stays down for good.
fault::FaultSchedule SampleFailures(const fault::FaultSchedule& generated,
                                   int count, double end_s, uint64_t seed) {
  using fault::FaultEvent;
  using fault::FaultType;
  struct Episode {
    FaultEvent failure;
    FaultEvent repair;
  };
  auto repair_at = [](const FaultEvent& f, double t) {
    switch (f.type) {
      case FaultType::kFiberCut:
        return FaultEvent::FiberRepair(t, f.target);
      case FaultType::kSiteFail:
        return FaultEvent::SiteRepair(t, f.target);
      default:
        return FaultEvent::TransceiverRepair(t, f.target, f.ports, f.regens);
    }
  };
  // Pair each failure with the repair that follows it on the same
  // component; one still open at `end_s` is repaired there.
  std::vector<Episode> episodes;
  std::map<std::pair<FaultType, int>, size_t> open;
  for (const FaultEvent& e : generated.events) {
    FaultType failure_type;
    switch (e.type) {
      case FaultType::kFiberCut:
      case FaultType::kSiteFail:
      case FaultType::kTransceiverFail:
        open[{e.type, e.target}] = episodes.size();
        episodes.push_back({e, repair_at(e, end_s)});
        continue;
      case FaultType::kFiberRepair:
        failure_type = FaultType::kFiberCut;
        break;
      case FaultType::kSiteRepair:
        failure_type = FaultType::kSiteFail;
        break;
      case FaultType::kTransceiverRepair:
        failure_type = FaultType::kTransceiverFail;
        break;
      default:
        continue;
    }
    auto it = open.find({failure_type, e.target});
    if (it == open.end()) continue;
    episodes[it->second].repair = e;
    open.erase(it);
  }
  // Seeded choice of `count` episodes (partial Fisher-Yates).
  util::Rng rng(seed);
  const size_t keep = std::min(episodes.size(), static_cast<size_t>(count));
  for (size_t i = 0; i < keep; ++i) {
    std::swap(episodes[i], episodes[i + rng.Index(episodes.size() - i)]);
  }
  fault::FaultSchedule schedule;
  for (size_t i = 0; i < keep; ++i) {
    schedule.Add(episodes[i].failure);
    schedule.Add(episodes[i].repair);
  }
  schedule.Normalize();
  return schedule;
}

// The span-degradation faults the QoT workload adds to the generated
// schedule: `pairs` seeded (degrade, repair) pairs.
fault::FaultSchedule DrawSpanDegradations(const optical::OpticalNetwork& plant,
                                          int pairs, double horizon_s,
                                          double mean_repair_s, uint64_t seed) {
  fault::FaultSchedule schedule;
  if (pairs <= 0 || plant.NumFibers() == 0) return schedule;
  util::Rng rng(seed);
  for (int i = 0; i < pairs; ++i) {
    const net::EdgeId fiber = static_cast<net::EdgeId>(
        rng.Index(static_cast<size_t>(plant.NumFibers())));
    const double start = rng.Uniform(0.0, horizon_s);
    const double db = rng.Uniform(3.0, 9.0);
    const double repair = start + rng.Exponential(mean_repair_s);
    schedule.Add(fault::FaultEvent::SpanDegrade(start, fiber, db));
    schedule.Add(fault::FaultEvent::SpanRepair(repair, fiber));
  }
  schedule.Normalize();
  return schedule;
}

// Observer that records each decision for the replays. The plant is copied
// only when its state_stamp() changes, so decisions share unchanged plants.
class DecisionRecorder {
 public:
  explicit DecisionRecorder(std::vector<DecisionCapture>* out) : out_(out) {}

  void operator()(const core::TeInput& in, const core::TeOutput& out) {
    if (!plant_ || in.optical->state_stamp() != stamp_) {
      plant_ = std::make_shared<const optical::OpticalNetwork>(*in.optical);
      stamp_ = in.optical->state_stamp();
    }
    out_->push_back(DecisionCapture{
        plant_, out.new_topology ? *out.new_topology : *in.topology,
        in.demands, out.allocations, in.now});
  }

 private:
  std::vector<DecisionCapture>* out_;
  std::shared_ptr<const optical::OpticalNetwork> plant_;
  uint64_t stamp_ = 0;
};

class SimWorkload : public Workload {
 public:
  explicit SimWorkload(SimWorkloadSpec spec) : spec_(std::move(spec)) {}

  double Setup() override {
    // Tear down the previous run's state before the clock starts, so set-up
    // time never includes destroying the last scheme's thread pool.
    scheme_.reset();
    requests_.clear();
    options_ = sim::SimOptions{};
    wan_.reset();

    const Clock::time_point t0 = Clock::now();
    {
      obs::Span span("bench", "topo.build");
      if (spec_.qot_graded) {
        // The graded plant of the boolean-vs-QoT optical ablation: 200 G
        // line rate, reach out to the QoT 50 G feasibility edge, QoT twin on.
        topo::WanParams graded;
        graded.wavelength_gbps = 200.0;
        graded.reach_km = 5000.0;
        graded.qot.enabled = true;
        wan_ = std::make_unique<topo::Wan>(topo::MakeIspBackbone(7, 40, graded));
      } else {
        wan_ = std::make_unique<topo::Wan>(topo::MakeByName(spec_.topology));
      }
    }
    {
      obs::Span span("bench", "workload.generate");
      requests_ = workload::GenerateWorkload(*wan_, spec_.transfers);
      options_ = spec_.sim;
      options_.faults = SampleFailures(
          fault::GenerateFaultSchedule(wan_->optical, spec_.faults),
          spec_.failure_episodes, spec_.faults.horizon_s,
          SubSeed(spec_.faults.seed, 16));
      const fault::FaultSchedule degrades = DrawSpanDegradations(
          wan_->optical, spec_.span_degrade_pairs, spec_.faults.horizon_s,
          spec_.span_repair_mean_s, SubSeed(spec_.faults.seed, 17));
      for (const fault::FaultEvent& e : degrades.events) options_.faults.Add(e);
      options_.faults.Normalize();
    }
    {
      obs::Span span("bench", "scheme.build");
      scheme_ = std::make_unique<TimedScheme>(
          std::make_unique<core::OwanTe>(spec_.owan));
    }
    return SecondsSince(t0);
  }

  RunOutcome Run(std::vector<DecisionCapture>* capture) override {
    if (!scheme_) throw std::logic_error("SimWorkload::Run before Setup");
    obs::Counter& violations =
        obs::MetricsRegistry::Global().GetCounter("sim.invariant_violations");
    // Violations the sim found through the previous interval, read at each
    // decision: the difference between consecutive reads is one interval's
    // count (the counter only moves after Compute returns).
    std::vector<int64_t> violations_at;
    std::vector<double> decision_now;
    DecisionRecorder record(capture);
    scheme_->set_observer([&](const core::TeInput& in,
                              const core::TeOutput& out) {
      violations_at.push_back(violations.Value());
      decision_now.push_back(in.now);
      if (capture != nullptr) record(in, out);
    });

    const int64_t violations_before = violations.Value();
    const Clock::time_point t0 = Clock::now();
    sim::SimResult result;
    {
      obs::Span span("bench", "sim.run");
      result = sim::RunSimulation(*wan_, requests_, *scheme_, options_);
    }
    RunOutcome out;
    out.run_s = SecondsSince(t0);
    const int64_t violations_after = violations.Value();
    scheme_->set_observer(nullptr);

    out.decision_ms = scheme_->compute_ms();
    out.attempted = static_cast<int64_t>(out.decision_ms.size());
    out.verdicts = static_cast<double>(out.attempted);
    out.fault_events = result.fault_events;

    // Failed decisions: intervals with at least one invariant violation —
    // from the counter deltas (slot and transfer checks) plus the update
    // executor's violations, which the sim tags with the interval start.
    std::vector<bool> failed(decision_now.size(), false);
    std::map<std::string, size_t> by_start;
    for (size_t i = 0; i < decision_now.size(); ++i) {
      by_start[std::to_string(decision_now[i])] = i;
      const int64_t next = i + 1 < violations_at.size() ? violations_at[i + 1]
                                                        : violations_after;
      if (next > violations_at[i]) failed[i] = true;
    }
    int64_t attributed = violations_after - violations_before;
    const std::string tag = "update at t=";
    for (const std::string& v : result.invariant_violations) {
      if (v.compare(0, tag.size(), tag) != 0) continue;
      const size_t colon = v.find(':', tag.size());
      auto it = by_start.find(v.substr(tag.size(), colon - tag.size()));
      if (it == by_start.end()) continue;
      failed[it->second] = true;
      ++attributed;
    }
    if (!violations_at.empty() && violations_at.front() != violations_before) {
      attributed = -1;  // violations before the first decision: unattributable
    }
    if (attributed !=
        static_cast<int64_t>(result.invariant_violations.size())) {
      out.failure_examples.push_back(
          "invariant violations could not be attributed to intervals (" +
          std::to_string(attributed) + " of " +
          std::to_string(result.invariant_violations.size()) + ")");
      out.failed = out.attempted;
    } else {
      out.failed = std::count(failed.begin(), failed.end(), true);
    }
    for (size_t i = 0; i < result.invariant_violations.size() && i < 3; ++i) {
      out.failure_examples.push_back(result.invariant_violations[i]);
    }

    double completion = 0.0;
    int admitted = 0;
    uint64_t fp = 14695981039346656037ULL;
    for (const sim::TransferRecord& t : result.transfers) {
      completion += t.CompletionTime();
      admitted += t.admitted ? 1 : 0;
      Mix(fp, Bits(t.completed_at));
      Mix(fp, Bits(t.delivered));
    }
    Mix(fp, static_cast<uint64_t>(result.slots));
    Mix(fp, static_cast<uint64_t>(result.topology_changes));
    Mix(fp, result.invariant_violations.size());
    const double n = std::max<double>(1.0, result.transfers.size());
    out.completion_s_mean = completion / n;
    out.accept_frac = admitted / n;
    out.fingerprint = fp;
    return out;
  }

 private:
  SimWorkloadSpec spec_;
  std::unique_ptr<topo::Wan> wan_;
  std::vector<core::Request> requests_;
  sim::SimOptions options_;
  std::unique_ptr<TimedScheme> scheme_;
};

class AdmissionWorkload : public Workload {
 public:
  explicit AdmissionWorkload(AdmissionWorkloadSpec spec)
      : spec_(std::move(spec)) {}

  double Setup() override {
    service_.reset();
    timed_ = nullptr;
    wan_.reset();

    const Clock::time_point t0 = Clock::now();
    {
      obs::Span span("bench", "topo.build");
      wan_ = std::make_unique<topo::Wan>(topo::MakeByName(spec_.topology));
    }
    {
      obs::Span span("bench", "scheme.build");
      auto timed =
          std::make_unique<TimedScheme>(std::make_unique<te::GreedyOwanTe>());
      timed_ = timed.get();
      service_ = std::make_unique<service::ControllerService>(
          wan_.get(), std::move(timed), spec_.service);
    }
    {
      obs::Span span("bench", "workload.generate");
      service_->AttachStream(spec_.stream, spec_.requests);
    }
    return SecondsSince(t0);
  }

  RunOutcome Run(std::vector<DecisionCapture>* capture) override {
    if (!service_) throw std::logic_error("AdmissionWorkload::Run before Setup");
    if (capture != nullptr) timed_->set_observer(DecisionRecorder(capture));

    RunOutcome out;
    service::ControllerService& svc = *service_;
    const Clock::time_point t0 = Clock::now();
    while (svc.ingested() < spec_.requests) {
      const uint64_t before = svc.ingested();
      const Clock::time_point s0 = Clock::now();
      {
        obs::Span span("bench", "service.step");
        svc.RunUntilIngested(before + 1);
      }
      out.decision_ms.push_back(SecondsSince(s0) * 1e3);
      if (svc.ingested() == before) break;  // clock cap: stream not drained
    }
    {
      obs::Span span("bench", "service.drain");
      svc.Run();
    }
    out.run_s = SecondsSince(t0);
    timed_->set_observer(nullptr);

    const service::ServiceStats& s = svc.stats();
    const uint64_t decided = s.admitted + s.rejected;
    const std::vector<std::string> audit = svc.admission().Audit();
    const uint64_t undecided =
        spec_.requests > decided ? spec_.requests - decided : 0;
    out.attempted = static_cast<int64_t>(spec_.requests);
    out.failed = static_cast<int64_t>(undecided + audit.size());
    if (undecided > 0) {
      out.failure_examples.push_back(std::to_string(undecided) +
                                     " requests undecided");
    }
    for (size_t i = 0; i < audit.size() && i < 3; ++i) {
      out.failure_examples.push_back("ledger audit: " + audit[i]);
    }
    out.verdicts = static_cast<double>(decided);
    out.accept_frac =
        decided > 0 ? static_cast<double>(s.admitted) / decided : 0.0;
    out.fingerprint = svc.Fingerprint();
    out.service_slots = s.slots;
    out.service_recomputes = s.recomputes;
    out.service_pending_enqueued = s.pending_enqueued;
    return out;
  }

  // Re-runs the seed in one Run() with retained records: the fingerprint
  // must match the stepped run, and the records give the completion times
  // the soak-mode run does not keep.
  bool Verify(RunOutcome& outcome, std::string* why) override {
    service::ServiceOptions opt = spec_.service;
    opt.retain_records = true;
    service::ControllerService svc(wan_.get(),
                                   std::make_unique<te::GreedyOwanTe>(), opt);
    svc.AttachStream(spec_.stream, spec_.requests);
    svc.Run();
    if (svc.Fingerprint() != outcome.fingerprint) {
      *why = "slot-stepped run and single Run() disagree on Fingerprint()";
      return false;
    }
    const sim::SimResult r = svc.ToSimResult();
    double completion = 0.0;
    int admitted = 0;
    for (const sim::TransferRecord& t : r.transfers) {
      if (!t.admitted) continue;
      completion += t.CompletionTime();
      ++admitted;
    }
    outcome.completion_s_mean = admitted > 0 ? completion / admitted : 0.0;
    return true;
  }

  // The service's own ledger is built from the same graph.
  OfferReplay AdmissionReplay() const override {
    return {workload::TakeStream(*wan_, spec_.stream,
                                 static_cast<int>(spec_.requests)),
            wan_->default_topology.ToGraph(wan_->optical.wavelength_capacity()),
            spec_.service.slot_seconds};
  }

 private:
  AdmissionWorkloadSpec spec_;
  std::unique_ptr<topo::Wan> wan_;
  TimedScheme* timed_ = nullptr;  // owned by service_
  std::unique_ptr<service::ControllerService> service_;
};

}  // namespace

double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) throw std::invalid_argument("Percentile of no samples");
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(pct, 0.0, 100.0) / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (rank - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

TimedScheme::TimedScheme(std::unique_ptr<core::TeScheme> inner)
    : inner_(std::move(inner)) {
  if (!inner_) throw std::invalid_argument("TimedScheme: null scheme");
}

core::TeOutput TimedScheme::Compute(const core::TeInput& input) {
  core::TeOutput out;
  {
    obs::Span span("bench", "te.compute");
    span.AddArg("decision", static_cast<double>(compute_ms_.size()));
    const Clock::time_point t0 = Clock::now();
    out = inner_->Compute(input);
    compute_ms_.push_back(SecondsSince(t0) * 1e3);
  }
  if (observer_) observer_(input, out);
  return out;
}

// ---- workload definitions ----
//
// isp100-steady exists to time the fault-free, memo-on, two-chain search at
// the middle of the scale ladder, where the decision and the per-interval
// invariant check dominate. isp40-qot-faults exists to make the plant
// mutate under a QoT-graded twin, so caches are invalidated rather than
// filled and fault recompute and update execution run. isp40-admission
// exists to load the streaming service's admission, pending queue and
// per-slot bookkeeping with a cheap TE scheme. Each run of each makes at
// least 100 decisions; none sets a wall-clock budget, so every decision is
// a pure function of the seed.

SimWorkloadSpec SteadySpec(uint64_t seed) {
  SimWorkloadSpec s;
  s.topology = "isp100";
  s.transfers.duration_s = 18.0 * 3600.0;
  s.transfers.load_factor = 0.1;
  s.sim.max_time_s = s.transfers.duration_s + 3600.0;
  s.transfers.seed = SubSeed(seed, 1);
  s.owan.seed = SubSeed(seed, 2);
  s.owan.anneal.num_chains = 2;
  s.owan.anneal.num_threads = 2;
  return s;
}

SimWorkloadSpec QotFaultsSpec(uint64_t seed) {
  SimWorkloadSpec s;
  s.qot_graded = true;
  s.transfers.duration_s = 8.0 * 3600.0;
  s.transfers.load_factor = 0.15;
  s.sim.max_time_s = s.transfers.duration_s + 3600.0;
  s.transfers.seed = SubSeed(seed, 1);
  s.owan.seed = SubSeed(seed, 2);
  s.faults.seed = SubSeed(seed, 3);
  s.faults.horizon_s = s.transfers.duration_s;
  // ~55 failure episodes over the window, of which a fixed 16 are kept: a
  // Poisson count would make the run's length vary with the seed. Repairs
  // take 10 minutes on average; with 30 the rare hour-long outage stalled
  // enough transfers to swing completion_s_mean by up to 2x across seeds.
  s.faults.fiber = {.mtbf_s = 15.0 * 3600.0, .mttr_s = 600.0};
  s.faults.transceiver = {.mtbf_s = 15.0 * 3600.0, .mttr_s = 600.0};
  s.faults.transceiver_ports = 1;
  s.failure_episodes = 16;
  s.span_degrade_pairs = 8;
  s.span_repair_mean_s = 600.0;
  s.sim.execute_updates = true;
  s.sim.actuation.seed = SubSeed(seed, 4);
  s.sim.actuation.circuit_failure_prob = 0.05;
  s.sim.actuation.route_failure_prob = 0.01;
  s.sim.actuation.latency_cv = 0.5;
  s.sim.actuation.straggler_prob = 0.02;
  return s;
}

AdmissionWorkloadSpec AdmissionSpec(uint64_t seed) {
  AdmissionWorkloadSpec s;
  s.topology = "isp40";
  s.requests = 20000;
  s.stream.seed = SubSeed(seed, 5);
  s.stream.arrivals_per_s = 0.2;
  s.stream.slot_seconds = s.service.slot_seconds;
  s.service.mode = service::ServiceMode::kOnline;
  s.service.retain_records = false;
  // Stop four hours after the stream's expected end. Transfers the scheme
  // starves would otherwise be carried to the default 72 h cap, and the
  // seed-dependent size of that stuck set would set the run's length.
  s.service.max_time_s =
      static_cast<double>(s.requests) / s.stream.arrivals_per_s + 4.0 * 3600.0;
  return s;
}

std::unique_ptr<Workload> MakeSimWorkload(SimWorkloadSpec spec) {
  return std::make_unique<SimWorkload>(std::move(spec));
}

std::unique_ptr<Workload> MakeAdmissionWorkload(AdmissionWorkloadSpec spec) {
  return std::make_unique<AdmissionWorkload>(std::move(spec));
}

std::vector<std::string> WorkloadNames() {
  return {"isp100-steady", "isp40-qot-faults", "isp40-admission"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "isp100-steady") return MakeSimWorkload(SteadySpec(seed));
  if (name == "isp40-qot-faults") return MakeSimWorkload(QotFaultsSpec(seed));
  if (name == "isp40-admission") {
    return MakeAdmissionWorkload(AdmissionSpec(seed));
  }
  throw std::invalid_argument("unknown workload '" + name +
                              "' (known: isp100-steady, isp40-qot-faults, "
                              "isp40-admission)");
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: on Linux ru_maxrss survives exec, so
  // a child of a large parent would report the parent's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

}  // namespace owan::perfbench
