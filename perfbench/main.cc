// owan_perfbench — one workload of the whole-run controller benchmark, in
// one process.
//
//   owan_perfbench --workload NAME --seed N --seconds S [--traced
//                  [--trace-out FILE]]
//   owan_perfbench --list-metrics   (workload names and metric units)
//
// Untraced (the end-to-end metrics): repeats set-up and the timed run of
// the seed's inputs until about S seconds have been measured, then prints
//   metric <name> <unit> <value> <samples>
//   outcome <attempted> <failed> <correct 0|1>
// Traced (the per-layer metrics): a capture run, an untraced run, a traced
// run of the same seed, then replays of layer entry points on the captured
// decisions. perfbench/run.py turns either output into the benchmark's
// result line.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_core.h"
#include "layers.h"
#include "obs/metrics.h"
#include "obs/trace.h"

using namespace owan;
using namespace owan::perfbench;

namespace {

// Every timed run must give the percentiles at least ten samples beyond p90.
constexpr size_t kMinDecisions = 100;
// Extra set-ups before the timed runs; each run adds one more. setup_s is
// the median over all of them.
constexpr int kExtraSetups = 30;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string trace_out;  // Chrome-tracing JSON of the traced run
  bool list_metrics = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: owan_perfbench --workload NAME --seed N "
               "--seconds S [--traced [--trace-out FILE]] | --list-metrics\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--traced") {
      a.traced = true;
    } else if (flag == "--trace-out") {
      a.trace_out = value();
    } else if (flag == "--list-metrics") {
      a.list_metrics = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!a.list_metrics && !have_workload) Usage("--workload is required");
  if (!(a.seconds > 0.0)) Usage("--seconds must be positive");
  return a;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

void PrintMetric(const MetricDef& def, double value, size_t samples) {
  std::printf("metric %s %s %.17g %zu\n", def.name, def.unit, value, samples);
}

// Same inputs must give the same decisions, whatever else ran around them.
bool SameDecisions(const RunOutcome& a, const RunOutcome& b) {
  return a.fingerprint == b.fingerprint &&
         a.completion_s_mean == b.completion_s_mean &&
         a.accept_frac == b.accept_frac && a.attempted == b.attempted &&
         a.failed == b.failed && a.decision_ms.size() == b.decision_ms.size();
}

void PrintOutcome(const RunOutcome& o, bool correct,
                  const std::vector<std::string>& notes) {
  for (const std::string& n : notes) std::printf("note %s\n", n.c_str());
  for (const std::string& f : o.failure_examples) {
    std::printf("note failure: %s\n", f.c_str());
  }
  std::printf("outcome %lld %lld %d\n", static_cast<long long>(o.attempted),
              static_cast<long long>(o.failed), correct ? 1 : 0);
}

void CheckDecisionCount(const RunOutcome& o) {
  if (o.decision_ms.size() < kMinDecisions) {
    throw std::runtime_error(
        "run made " + std::to_string(o.decision_ms.size()) +
        " decisions; at least " + std::to_string(kMinDecisions) +
        " are needed for exact percentiles");
  }
}

int RunUntraced(const Args& args) {
  const auto w = MakeWorkload(args.workload, args.seed);
  std::vector<double> setup_s;
  for (int i = 0; i < kExtraSetups; ++i) setup_s.push_back(w->Setup());

  std::vector<RunOutcome> runs;
  double rss_mb = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    setup_s.push_back(w->Setup());
    runs.push_back(w->Run(nullptr));
    CheckDecisionCount(runs.back());
    // After the first run: later repetitions only add allocator churn, and
    // their number depends on speed.
    if (runs.size() == 1) rss_mb = PeakRssMb();
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    // Start another run only if it is expected to end within the budget.
    if (elapsed + runs.back().run_s > args.seconds) break;
  }
  bool correct = true;
  std::vector<std::string> notes;
  RunOutcome& first = runs.front();
  for (const RunOutcome& r : runs) {
    if (!SameDecisions(first, r)) {
      correct = false;
      notes.push_back("repeated runs of one seed made different decisions");
      break;
    }
  }
  std::string why;
  if (!w->Verify(first, &why)) {
    correct = false;
    notes.push_back(why);
  }

  std::vector<double> run_s;
  std::vector<double> per_s;
  std::vector<double> decisions;
  for (const RunOutcome& r : runs) {
    run_s.push_back(r.run_s);
    per_s.push_back(r.verdicts / r.run_s);
    decisions.insert(decisions.end(), r.decision_ms.begin(), r.decision_ms.end());
  }
  const std::vector<double> values = {
      Median(setup_s),
      Median(run_s),
      Percentile(decisions, 50.0),
      Percentile(decisions, 90.0),
      rss_mb,
      first.completion_s_mean,
      Median(per_s),
      first.accept_frac,
  };
  const std::vector<size_t> samples = {
      setup_s.size(),    run_s.size(),
      decisions.size(),  decisions.size(),
      1,                 static_cast<size_t>(first.attempted),
      per_s.size(),      static_cast<size_t>(first.verdicts),
  };
  for (size_t i = 0; i < kEndToEndMetrics.size(); ++i) {
    PrintMetric(kEndToEndMetrics[i], values[i], samples[i]);
  }
  std::string each;
  for (double r : run_s) each += " " + std::to_string(r);
  notes.push_back(std::to_string(runs.size()) + " timed runs of " +
                  std::to_string(first.decision_ms.size()) +
                  " decisions, run_s:" + each);
  PrintOutcome(first, correct, notes);
  return 0;
}

int RunTraced(const Args& args) {
  const auto w = MakeWorkload(args.workload, args.seed);
  obs::Tracer& tracer = obs::Tracer::Global();
  MetricValues m;
  for (const MetricDef& d : kPerLayerMetrics) m[d.name] = 0.0;

  // Set-up stage spans, over repeated set-ups.
  tracer.Start(1);
  for (int i = 0; i < kExtraSetups; ++i) w->Setup();
  tracer.Stop();
  AddSetupSpanMetrics(tracer.Events(), m);
  tracer.Clear();

  // The capture run goes first: it also warms the allocator, so the untraced
  // and traced runs that follow start from the same state.
  std::vector<DecisionCapture> decisions;
  w->Setup();
  RunOutcome captured = w->Run(&decisions);

  w->Setup();
  RunOutcome untraced = w->Run(nullptr);

  w->Setup();
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  tracer.Start(1);
  RunOutcome traced = w->Run(nullptr);
  tracer.Stop();
  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  AddRunSpanMetrics(tracer.Events(), m);
  if (!args.trace_out.empty() && !tracer.ExportChromeTrace(args.trace_out)) {
    throw std::runtime_error("cannot write " + args.trace_out);
  }
  tracer.Clear();
  AddCounterMetrics(before, after, m);

  CheckDecisionCount(untraced);
  CheckDecisionCount(traced);

  bool correct = true;
  std::vector<std::string> notes;
  if (!SameDecisions(untraced, traced) || !SameDecisions(untraced, captured)) {
    correct = false;
    notes.push_back("traced, untraced and capture runs made different decisions");
  }
  std::string why;
  if (!w->Verify(untraced, &why)) {
    correct = false;
    notes.push_back(why);
  }

  RunReplays(decisions, w->AdmissionReplay(), m);

  m["fault.events"] = traced.fault_events;
  if (traced.service_slots > 0) {
    m["service.recompute_ratio"] =
        static_cast<double>(traced.service_recomputes) /
        static_cast<double>(traced.service_slots);
    m["service.pending_enqueued"] =
        static_cast<double>(traced.service_pending_enqueued);
  }
  m["obs.trace_overhead_frac"] = (traced.run_s - untraced.run_s) / untraced.run_s;

  for (const MetricDef& d : kPerLayerMetrics) PrintMetric(d, m.at(d.name), 1);
  notes.push_back("untraced run_s " + std::to_string(untraced.run_s) +
                  ", traced run_s " + std::to_string(traced.run_s) + ", " +
                  std::to_string(decisions.size()) + " captured decisions");
  PrintOutcome(traced, correct, notes);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  if (args.list_metrics) {
    for (const std::string& name : WorkloadNames()) {
      std::printf("workload %s\n", name.c_str());
    }
    for (const MetricDef& d : kEndToEndMetrics) {
      std::printf("end_to_end %s %s\n", d.name, d.unit);
    }
    for (const MetricDef& d : kPerLayerMetrics) {
      std::printf("per_layer %s %s\n", d.name, d.unit);
    }
    return 0;
  }
  try {
    return args.traced ? RunTraced(args) : RunUntraced(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
