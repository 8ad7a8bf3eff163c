#ifndef OWAN_OBS_OBS_H_
#define OWAN_OBS_OBS_H_

// Umbrella header for instrumentation call sites: the OWAN_* macros wrap
// obs::MetricsRegistry and obs::Tracer so that
//   * OWAN_OBS_LEVEL=0 compiles every macro to nothing,
//   * name lookup happens once per call site (function-local static),
//   * the runtime kill switches (SetMetricsEnabled, Tracer::Start/Stop)
//     cost one relaxed atomic load when off.
//
// Metric-name convention: "<layer>.<what>" (anneal.iterations,
// sim.fault_events, update.ops). Span convention: category = layer,
// name = stage ("service"/"recompute", "core"/"anneal", "sim"/"slot").

#include <chrono>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace owan::obs {

// Adds elapsed wall-clock seconds to a histogram at scope exit. A null
// histogram makes it a no-op (the OWAN_TIMER macro passes null when
// metrics are disabled).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h) : h_(h) {
    if (h_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (h_ == nullptr) return;
    h_->Record(std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
                   .count());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace owan::obs

#if OWAN_OBS_LEVEL >= 1

// Counter += n. `unit` is only consulted on first registration.
#define OWAN_COUNT_N(metric_name, metric_unit, n)                           \
  do {                                                                      \
    if (::owan::obs::MetricsEnabled()) {                                    \
      static ::owan::obs::Counter& owan_obs_counter_ =                      \
          ::owan::obs::MetricsRegistry::Global().GetCounter(                \
              (metric_name), (metric_unit));                                \
      owan_obs_counter_.Add(static_cast<int64_t>(n));                       \
    }                                                                       \
  } while (0)

#define OWAN_COUNT(metric_name) \
  OWAN_COUNT_N(metric_name, ::owan::obs::Unit::kOps, 1)

#define OWAN_GAUGE_SET(metric_name, metric_unit, v)                         \
  do {                                                                      \
    if (::owan::obs::MetricsEnabled()) {                                    \
      static ::owan::obs::Gauge& owan_obs_gauge_ =                          \
          ::owan::obs::MetricsRegistry::Global().GetGauge(                  \
              (metric_name), (metric_unit));                                \
      owan_obs_gauge_.Set(static_cast<double>(v));                          \
    }                                                                       \
  } while (0)

#define OWAN_HISTO(metric_name, metric_unit, v)                             \
  do {                                                                      \
    if (::owan::obs::MetricsEnabled()) {                                    \
      static ::owan::obs::Histogram& owan_obs_histogram_ =                  \
          ::owan::obs::MetricsRegistry::Global().GetHistogram(              \
              (metric_name), (metric_unit));                                \
      owan_obs_histogram_.Record(static_cast<double>(v));                   \
    }                                                                       \
  } while (0)

// Wall-clock scope timer recording into a kSeconds histogram named
// `metric_name`. Declares a local named `var`.
#define OWAN_TIMER(var, metric_name)                                        \
  static ::owan::obs::Histogram& owan_obs_timer_hist_##var =                \
      ::owan::obs::MetricsRegistry::Global().GetHistogram(                  \
          (metric_name), ::owan::obs::Unit::kSeconds);                      \
  ::owan::obs::ScopedTimer var(::owan::obs::MetricsEnabled()                \
                                   ? &owan_obs_timer_hist_##var             \
                                   : nullptr)

// Trace span for the enclosing scope; `var` allows AddArg calls.
#define OWAN_SPAN(var, span_cat, span_name) \
  ::owan::obs::Span var((span_cat), (span_name))

// Fine-grained span: only records when the tracer session's detail >= 2
// (and only exists at all when OWAN_OBS_LEVEL >= 2).
#if OWAN_OBS_LEVEL >= 2
#define OWAN_SPAN_DETAIL(var, span_cat, span_name) \
  ::owan::obs::Span var((span_cat), (span_name), /*min_detail=*/2)
#else
#define OWAN_SPAN_DETAIL(var, span_cat, span_name) \
  [[maybe_unused]] ::owan::obs::NoopSpan var
#endif

#define OWAN_INSTANT(span_cat, span_name, ...)                              \
  do {                                                                      \
    if (::owan::obs::Tracer::Global().active()) {                           \
      ::owan::obs::Tracer::Global().Instant((span_cat), (span_name),        \
                                            {__VA_ARGS__});                 \
    }                                                                       \
  } while (0)

#else  // OWAN_OBS_LEVEL == 0

#define OWAN_COUNT_N(metric_name, metric_unit, n) \
  do {                                            \
  } while (0)
#define OWAN_COUNT(metric_name) \
  do {                          \
  } while (0)
#define OWAN_GAUGE_SET(metric_name, metric_unit, v) \
  do {                                              \
  } while (0)
#define OWAN_HISTO(metric_name, metric_unit, v) \
  do {                                          \
  } while (0)
#define OWAN_TIMER(var, metric_name) \
  [[maybe_unused]] ::owan::obs::ScopedTimer var(nullptr)
#define OWAN_SPAN(var, span_cat, span_name) \
  [[maybe_unused]] ::owan::obs::NoopSpan var
#define OWAN_SPAN_DETAIL(var, span_cat, span_name) \
  [[maybe_unused]] ::owan::obs::NoopSpan var
#define OWAN_INSTANT(span_cat, span_name, ...) \
  do {                                         \
  } while (0)

#endif  // OWAN_OBS_LEVEL

#endif  // OWAN_OBS_OBS_H_
