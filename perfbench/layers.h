#ifndef OWAN_PERFBENCH_LAYERS_H_
#define OWAN_PERFBENCH_LAYERS_H_

// Per-layer breakdown of a traced run: self times by span containment,
// counter deltas, and replays of layer entry points on captured inputs.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_core.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace owan::perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metrics the benchmark prints, in print order. BENCHMARK.json lists
// the same names and units.
extern const std::vector<MetricDef> kEndToEndMetrics;
extern const std::vector<MetricDef> kPerLayerMetrics;

using MetricValues = std::map<std::string, double>;

// Total length of the union of [begin, end) intervals clipped to [lo, hi).
int64_t UnionLengthNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                      int64_t lo, int64_t hi);

// Span-derived metrics of one traced run (te.compute_ms, sim.self_ms,
// core.*_ms, fault.recompute_ms, update.execute_ms, service.*_ms).
void AddRunSpanMetrics(const std::vector<obs::TraceEvent>& events,
                       MetricValues& out);

// Counter-derived metrics from registry snapshots taken around the run.
void AddCounterMetrics(const obs::MetricsSnapshot& before,
                       const obs::MetricsSnapshot& after, MetricValues& out);

// Median span durations of the set-up stages over repeated set-ups.
void AddSetupSpanMetrics(const std::vector<obs::TraceEvent>& events,
                         MetricValues& out);

// Replays layer entry points on each captured decision (and Offer over
// the admission stream, when there is one) under benchmark spans, and
// records per-call mean costs plus the realize replays' work counts.
// Starts and stops the global tracer.
void RunReplays(const std::vector<DecisionCapture>& decisions,
                const OfferReplay& offers, MetricValues& out);

}  // namespace owan::perfbench

#endif  // OWAN_PERFBENCH_LAYERS_H_
