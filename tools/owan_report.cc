// owan_report — turns the telemetry files the repo's binaries emit into
// human-readable summary tables:
//
//   * metrics snapshots  (bench --json "metrics" section, or a bare
//     {"owan_metrics":1,...} object): counters/gauges tables plus
//     histogram percentile rows (count, mean, p50/p95/p99, min, max);
//   * Chrome traces      (--trace exports, fault_stress dumps): per-stage
//     latency percentiles, per-chain accept-rate / energy stats from the
//     anneal.chain span args, and update-plan step counts;
//   * JSONL event logs   (--events exports): same stage table, parsed one
//     event per line.
//
// File kinds are sniffed from content, so `owan_report perf/*.json` just
// works. Exits non-zero if any input fails to parse.
//
// Usage: owan_report <file>...
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

using owan::obs::json::Value;

namespace {

// Exact percentile over a sorted sample set (nearest-rank).
double Pct(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double rank = pct / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

struct StageStats {
  std::vector<double> durations_us;
  double total_us = 0.0;
};

struct ChainStats {
  double iterations = 0.0;
  double accepted = 0.0;
  double best_energy = 0.0;
};

// Accumulated view over every trace/event-log input.
struct TraceReport {
  std::map<std::string, StageStats> stages;       // "cat/name" -> durations
  std::map<int, ChainStats> chains;               // chain index -> last stats
  double update_ops = 0.0;                        // update.schedule "ops" sum
  int update_plans = 0;
  int instants = 0;
};

void AddTraceEvent(TraceReport* rep, const std::string& cat,
                   const std::string& name, double dur_us,
                   const std::map<std::string, double>& args) {
  if (dur_us < 0.0) {
    ++rep->instants;
    return;
  }
  StageStats& st = rep->stages[cat + "/" + name];
  st.durations_us.push_back(dur_us);
  st.total_us += dur_us;
  if (name == "anneal.chain") {
    auto it = args.find("chain");
    if (it != args.end()) {
      ChainStats& c = rep->chains[static_cast<int>(it->second)];
      auto get = [&](const char* k, double fallback) {
        auto a = args.find(k);
        return a == args.end() ? fallback : a->second;
      };
      c.iterations += get("iterations", 0.0);
      c.accepted += get("accepted", 0.0);
      c.best_energy = get("best_energy", c.best_energy);
    }
  }
  if (name == "update.schedule") {
    ++rep->update_plans;
    auto it = args.find("ops");
    if (it != args.end()) rep->update_ops += it->second;
  }
}

void AddChromeEvent(TraceReport* rep, const Value& ev) {
  const Value* name = ev.Find("name");
  const Value* cat = ev.Find("cat");
  const Value* ph = ev.Find("ph");
  if (name == nullptr || cat == nullptr) return;
  double dur_us = -1.0;
  if (ph == nullptr || ph->StringOr("X") == "X") {
    const Value* dur = ev.Find("dur");
    if (dur != nullptr) dur_us = dur->NumberOr(-1.0);
  }
  std::map<std::string, double> args;
  if (const Value* a = ev.Find("args"); a != nullptr && a->IsObject()) {
    for (const auto& [k, v] : a->object) {
      if (v.IsNumber()) args[k] = v.number;
    }
  }
  AddTraceEvent(rep, cat->StringOr(""), name->StringOr(""), dur_us, args);
}

void PrintTraceReport(const TraceReport& rep) {
  std::printf("\n-- stage latency (per span, microseconds) --\n");
  std::printf("%-28s %8s %12s %10s %10s %10s\n", "stage", "count",
              "total_ms", "p50_us", "p95_us", "p99_us");
  for (auto& [stage, st] : rep.stages) {
    std::vector<double> d = st.durations_us;
    std::sort(d.begin(), d.end());
    std::printf("%-28s %8zu %12.2f %10.1f %10.1f %10.1f\n", stage.c_str(),
                d.size(), st.total_us / 1000.0, Pct(d, 50), Pct(d, 95),
                Pct(d, 99));
  }
  if (!rep.chains.empty()) {
    std::printf("\n-- annealing chains --\n");
    std::printf("%-8s %12s %12s %12s %14s\n", "chain", "iterations",
                "accepted", "accept_rate", "best_energy");
    for (auto& [chain, c] : rep.chains) {
      std::printf("%-8d %12.0f %12.0f %11.1f%% %14.2f\n", chain,
                  c.iterations, c.accepted,
                  c.iterations > 0 ? 100.0 * c.accepted / c.iterations : 0.0,
                  c.best_energy);
    }
  }
  if (rep.update_plans > 0) {
    std::printf("\n-- update plans --\n");
    std::printf("plans %d, total ops %.0f, mean ops/plan %.1f\n",
                rep.update_plans, rep.update_ops,
                rep.update_ops / rep.update_plans);
  }
  if (rep.instants > 0) {
    std::printf("\ninstant events (fault interrupts, markers): %d\n",
                rep.instants);
  }
}

// Admission summary over the slot loop's service.* counters and
// histograms: accept/reject/pending rates, the recompute-batching ratio,
// time-to-decision percentiles, and the sampled pending-queue depth.
// Batch simulator runs record them too (the scheme's Admit decides, every
// slot recomputes). Prints nothing when the snapshot has no decisions.
void PrintAdmissionSummary(const Value& counters, const Value& histograms) {
  std::map<std::string, double> c;
  for (const Value& v : counters.array) {
    if (const Value* n = v.Find("name"); n != nullptr) {
      c[n->StringOr("")] = v.Find("value") ? v.Find("value")->NumberOr(0.0)
                                           : 0.0;
    }
  }
  const double admitted = c["service.admitted"];
  const double rejected = c["service.rejected"];
  const double decided = admitted + rejected;
  if (decided <= 0.0) return;

  std::printf("\n-- admission summary --\n");
  std::printf("decided %.0f: %.0f admitted (%.1f%%), %.0f rejected (%.1f%%)\n",
              decided, admitted, 100.0 * admitted / decided, rejected,
              100.0 * rejected / decided);
  const double enq = c["service.pending_enqueued"];
  if (enq > 0.0) {
    std::printf(
        "pending queue: %.0f enqueued, %.0f later admitted, %.0f expired\n",
        enq, c["service.pending_admitted"], c["service.pending_rejected"]);
  }
  const double recomputes = c["service.recomputes"];
  const double coasts = c["service.coasts"];
  if (recomputes > 0.0) {
    std::printf(
        "recomputes %.0f vs %.0f requests (%.1fx batched), %.0f coasted "
        "slots (%.0f%%)\n",
        recomputes, c["service.requests"],
        c["service.requests"] / recomputes, coasts,
        recomputes + coasts > 0 ? 100.0 * coasts / (recomputes + coasts)
                                : 0.0);
  }
  for (const Value& h : histograms.array) {
    const std::string name =
        h.Find("name") ? h.Find("name")->StringOr("") : "";
    auto num = [&](const char* k) {
      const Value* v = h.Find(k);
      return v ? v->NumberOr(0.0) : 0.0;
    };
    if (name == "service.decision_latency_s") {
      std::printf(
          "time to decision (sim s): p50 %.4g  p95 %.4g  p99 %.4g  max "
          "%.4g\n",
          num("p50"), num("p95"), num("p99"), num("max"));
    } else if (name == "service.queue_depth") {
      const double count = num("count");
      std::printf(
          "queue depth (per slot): mean %.2f  p50 %.4g  p95 %.4g  max "
          "%.4g\n",
          count > 0 ? num("sum") / count : 0.0, num("p50"), num("p95"),
          num("max"));
    }
  }
}

void PrintMetricsReport(const Value& m) {
  const Value* counters = m.Find("counters");
  const Value* gauges = m.Find("gauges");
  const Value* histograms = m.Find("histograms");
  if (counters != nullptr && !counters->array.empty()) {
    std::printf("\n-- counters --\n");
    std::printf("%-32s %10s %16s\n", "name", "unit", "value");
    for (const Value& c : counters->array) {
      std::printf("%-32s %10s %16.0f\n",
                  c.Find("name") ? c.Find("name")->StringOr("?").c_str()
                                 : "?",
                  c.Find("unit") ? c.Find("unit")->StringOr("").c_str() : "",
                  c.Find("value") ? c.Find("value")->NumberOr(0.0) : 0.0);
    }
  }
  if (gauges != nullptr && !gauges->array.empty()) {
    std::printf("\n-- gauges --\n");
    std::printf("%-32s %10s %16s\n", "name", "unit", "value");
    for (const Value& g : gauges->array) {
      std::printf("%-32s %10s %16.4g\n",
                  g.Find("name") ? g.Find("name")->StringOr("?").c_str()
                                 : "?",
                  g.Find("unit") ? g.Find("unit")->StringOr("").c_str() : "",
                  g.Find("value") ? g.Find("value")->NumberOr(0.0) : 0.0);
    }
  }
  if (histograms != nullptr && !histograms->array.empty()) {
    std::printf("\n-- histograms --\n");
    std::printf("%-28s %8s %12s %12s %12s %12s %12s %12s\n", "name", "count",
                "mean", "p50", "p95", "p99", "min", "max");
    double delivered = 0.0, invalidated = 0.0;
    bool saw_delivery = false;
    for (const Value& h : histograms->array) {
      auto num = [&](const char* k) {
        const Value* v = h.Find(k);
        return v ? v->NumberOr(0.0) : 0.0;
      };
      const std::string name =
          h.Find("name") ? h.Find("name")->StringOr("?") : "?";
      const double count = num("count");
      std::printf("%-28s %8.0f %12.4g %12.4g %12.4g %12.4g %12.4g %12.4g\n",
                  name.c_str(), count,
                  count > 0 ? num("sum") / count : 0.0, num("p50"),
                  num("p95"), num("p99"), num("min"), num("max"));
      if (name == "sim.delivered_gigabits") {
        delivered = num("sum");
        saw_delivery = true;
      }
      if (name == "sim.invalidated_gigabits") {
        invalidated = num("sum");
        saw_delivery = true;
      }
    }
    if (saw_delivery) {
      std::printf(
          "\ndelivered %.1f Gb vs invalidated-by-faults %.1f Gb (%.2f%% "
          "lost)\n",
          delivered, invalidated,
          delivered + invalidated > 0
              ? 100.0 * invalidated / (delivered + invalidated)
              : 0.0);
    }
  }
  if (counters != nullptr && histograms != nullptr) {
    PrintAdmissionSummary(*counters, *histograms);
  } else if (counters != nullptr) {
    PrintAdmissionSummary(*counters, Value{});
  }
}

void PrintBenchRecords(const Value& records) {
  if (records.array.empty()) return;
  std::printf("\n-- bench records --\n");
  for (const Value& r : records.array) {
    std::string line;
    for (const auto& [k, v] : r.object) {
      if (!line.empty()) line += "  ";
      char buf[96];
      if (v.IsString()) {
        std::snprintf(buf, sizeof(buf), "%s=%s", k.c_str(),
                      v.string.c_str());
      } else {
        std::snprintf(buf, sizeof(buf), "%s=%.6g", k.c_str(),
                      v.NumberOr(0.0));
      }
      line += buf;
    }
    std::printf("  %s\n", line.c_str());
  }
}

bool ReportJsonl(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "owan_report: cannot open %s\n", path.c_str());
    return false;
  }
  TraceReport rep;
  std::string line;
  int lineno = 0;
  while (std::getline(f, line)) {
    ++lineno;
    if (line.empty()) continue;
    Value ev;
    std::string err;
    if (!owan::obs::json::Parse(line, &ev, &err)) {
      std::fprintf(stderr, "owan_report: %s:%d: %s\n", path.c_str(), lineno,
                   err.c_str());
      return false;
    }
    const Value* name = ev.Find("name");
    const Value* cat = ev.Find("cat");
    if (name == nullptr || cat == nullptr) continue;
    const Value* dur = ev.Find("dur_ns");
    const double dur_us =
        dur != nullptr && dur->NumberOr(-1.0) >= 0.0
            ? dur->NumberOr(0.0) / 1000.0
            : -1.0;
    std::map<std::string, double> args;
    if (const Value* a = ev.Find("args"); a != nullptr && a->IsObject()) {
      for (const auto& [k, v] : a->object) {
        if (v.IsNumber()) args[k] = v.number;
      }
    }
    AddTraceEvent(&rep, cat->StringOr(""), name->StringOr(""), dur_us, args);
  }
  PrintTraceReport(rep);
  return true;
}

bool ReportFile(const std::string& path) {
  const size_t dot = path.rfind('.');
  if (dot != std::string::npos && path.substr(dot) == ".jsonl") {
    std::printf("==== %s (event log) ====\n", path.c_str());
    return ReportJsonl(path);
  }

  Value root;
  std::string err;
  if (!owan::obs::json::ParseFile(path, &root, &err)) {
    std::fprintf(stderr, "owan_report: %s\n", err.c_str());
    return false;
  }

  if (const Value* events = root.Find("traceEvents");
      events != nullptr && events->IsArray()) {
    std::printf("==== %s (chrome trace) ====\n", path.c_str());
    TraceReport rep;
    for (const Value& ev : events->array) AddChromeEvent(&rep, ev);
    PrintTraceReport(rep);
    return true;
  }
  if (root.Find("owan_metrics") != nullptr) {
    std::printf("==== %s (metrics snapshot) ====\n", path.c_str());
    PrintMetricsReport(root);
    return true;
  }
  if (const Value* records = root.Find("records");
      records != nullptr && records->IsArray()) {
    std::printf("==== %s (bench output) ====\n", path.c_str());
    PrintBenchRecords(*records);
    if (const Value* metrics = root.Find("metrics");
        metrics != nullptr && metrics->IsObject()) {
      PrintMetricsReport(*metrics);
    }
    return true;
  }
  std::fprintf(stderr, "owan_report: %s: unrecognized telemetry format\n",
               path.c_str());
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || !std::strcmp(argv[1], "--help") ||
      !std::strcmp(argv[1], "-h")) {
    std::fprintf(stderr,
                 "usage: %s <file>...\n"
                 "  summarizes metrics snapshots, bench --json outputs,\n"
                 "  Chrome traces (--trace) and JSONL event logs (--events)\n",
                 argc > 0 ? argv[0] : "owan_report");
    return 2;
  }
  bool ok = true;
  for (int i = 1; i < argc; ++i) {
    if (i > 1) std::printf("\n");
    ok = ReportFile(argv[i]) && ok;
  }
  return ok ? 0 : 1;
}
