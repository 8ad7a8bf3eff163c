#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <limits>
#include <map>
#include <mutex>

namespace owan::obs {

namespace {

std::atomic<bool> g_metrics_enabled{[] {
  const char* env = std::getenv("OWAN_METRICS");
  return !(env != nullptr && env[0] == '0' && env[1] == '\0');
}()};

// %.17g — round-trips doubles exactly (the fingerprint and JSON export
// both depend on it).
std::string FmtDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

const char* UnitName(Unit unit) {
  switch (unit) {
    case Unit::kNone:
      return "";
    case Unit::kOps:
      return "ops";
    case Unit::kGigabits:
      return "Gb";
    case Unit::kSimSeconds:
      return "sim_s";
    case Unit::kSeconds:
      return "s";
  }
  return "";
}

bool MetricsEnabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void SetMetricsEnabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

namespace internal {

void AtomicAdd(std::atomic<double>& slot, double delta) {
  double cur = slot.load(std::memory_order_relaxed);
  while (!slot.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>& slot, double value) {
  double cur = slot.load(std::memory_order_relaxed);
  while (value < cur && !slot.compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>& slot, double value) {
  double cur = slot.load(std::memory_order_relaxed);
  while (value > cur && !slot.compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

uint32_t ThisThreadShard() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t shard =
      next.fetch_add(1, std::memory_order_relaxed) %
      static_cast<uint32_t>(kShards);
  return shard;
}

}  // namespace internal

// ---- Counter ----

int64_t Counter::Value() const {
  int64_t total = 0;
  for (const internal::CounterShard& s : shards_) {
    total += s.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (internal::CounterShard& s : shards_) {
    s.value.store(0, std::memory_order_relaxed);
  }
}

// ---- Histogram ----

int Histogram::BucketIndex(double v) {
  if (!(v >= std::ldexp(1.0, kMinExp))) return 0;  // <=0, NaN, underflow
  if (v >= std::ldexp(1.0, kMaxExp + 1)) return kNumBuckets - 1;
  const int e = std::ilogb(v);
  // frac in [0, 1): position within the power-of-two decade.
  const double frac = std::ldexp(v, -e) - 1.0;
  int sub = static_cast<int>(frac * kSubBuckets);
  sub = std::min(sub, kSubBuckets - 1);
  return 1 + (e - kMinExp) * kSubBuckets + sub;
}

double Histogram::BucketLowerBound(int index) {
  if (index <= 0) return 0.0;
  if (index >= kNumBuckets - 1) return std::ldexp(1.0, kMaxExp + 1);
  const int i = index - 1;
  const int e = kMinExp + i / kSubBuckets;
  const int sub = i % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, e);
}

double Histogram::BucketUpperBound(int index) {
  if (index <= 0) return std::ldexp(1.0, kMinExp);
  if (index >= kNumBuckets - 1) return std::ldexp(1.0, kMaxExp + 2);
  return BucketLowerBound(index + 1);
}

void Histogram::Record(double v) {
  Shard& s = shards_[internal::ThisThreadShard()];
  s.count.fetch_add(1, std::memory_order_relaxed);
  internal::AtomicAdd(s.sum, v);
  internal::AtomicMin(s.min, v);
  internal::AtomicMax(s.max, v);
  s.buckets[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
}

void Histogram::Reset() {
  for (Shard& s : shards_) {
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0.0, std::memory_order_relaxed);
    s.min.store(std::numeric_limits<double>::infinity(),
                std::memory_order_relaxed);
    s.max.store(-std::numeric_limits<double>::infinity(),
                std::memory_order_relaxed);
    for (std::atomic<int64_t>& b : s.buckets) {
      b.store(0, std::memory_order_relaxed);
    }
  }
}

int64_t Histogram::Count() const {
  int64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

// ---- snapshots ----

double HistogramSnapshot::Mean() const {
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

double HistogramSnapshot::Percentile(double pct) const {
  if (count <= 0) return 0.0;
  pct = std::clamp(pct, 0.0, 100.0);
  const int64_t target = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(pct / 100.0 *
                                        static_cast<double>(count))));
  int64_t seen = 0;
  for (const auto& [index, n] : buckets) {
    seen += n;
    if (seen >= target) {
      const double lo = Histogram::BucketLowerBound(index);
      // Bucket 0 holds zeros, negatives and underflow: its midpoint (2^-31)
      // would report a run of exact zeros as a tiny positive value.
      if (index == 0) return std::clamp(lo, min, max);
      const double hi = Histogram::BucketUpperBound(index);
      return std::clamp(0.5 * (lo + hi), min, max);
    }
  }
  return max;
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (other.count == 0) return;
  if (count == 0) {
    min = other.min;
    max = other.max;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  count += other.count;
  sum += other.sum;
  std::vector<std::pair<int, int64_t>> merged;
  merged.reserve(buckets.size() + other.buckets.size());
  size_t i = 0, j = 0;
  while (i < buckets.size() || j < other.buckets.size()) {
    if (j >= other.buckets.size() ||
        (i < buckets.size() && buckets[i].first < other.buckets[j].first)) {
      merged.push_back(buckets[i++]);
    } else if (i >= buckets.size() ||
               other.buckets[j].first < buckets[i].first) {
      merged.push_back(other.buckets[j++]);
    } else {
      merged.emplace_back(buckets[i].first,
                          buckets[i].second + other.buckets[j].second);
      ++i;
      ++j;
    }
  }
  buckets = std::move(merged);
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"owan_metrics\": 1,\n \"counters\": [";
  bool first = true;
  for (const CounterSnapshot& c : counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  {\"name\": \"" + c.name + "\", \"unit\": \"" +
           UnitName(c.unit) + "\", \"value\": " + std::to_string(c.value) +
           "}";
  }
  out += "],\n \"gauges\": [";
  first = true;
  for (const GaugeSnapshot& g : gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  {\"name\": \"" + g.name + "\", \"unit\": \"" +
           UnitName(g.unit) + "\", \"value\": " + FmtDouble(g.value) + "}";
  }
  out += "],\n \"histograms\": [";
  first = true;
  for (const HistogramSnapshot& h : histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  {\"name\": \"" + h.name + "\", \"unit\": \"" +
           UnitName(h.unit) + "\", \"count\": " + std::to_string(h.count) +
           ", \"sum\": " + FmtDouble(h.sum) +
           ", \"min\": " + FmtDouble(h.min) +
           ", \"max\": " + FmtDouble(h.max) +
           ", \"p50\": " + FmtDouble(h.Percentile(50)) +
           ", \"p95\": " + FmtDouble(h.Percentile(95)) +
           ", \"p99\": " + FmtDouble(h.Percentile(99)) + ", \"buckets\": [";
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      if (i) out += ", ";
      out += "[" + std::to_string(h.buckets[i].first) + ", " +
             std::to_string(h.buckets[i].second) + "]";
    }
    out += "]}";
  }
  out += "]}\n";
  return out;
}

std::string MetricsSnapshot::DeterministicFingerprint() const {
  std::string out;
  for (const CounterSnapshot& c : counters) {
    if (c.unit == Unit::kSeconds) continue;
    out += "c " + c.name + " " + std::to_string(c.value) + "\n";
  }
  for (const GaugeSnapshot& g : gauges) {
    if (g.unit == Unit::kSeconds) continue;
    out += "g " + g.name + " " + FmtDouble(g.value) + "\n";
  }
  for (const HistogramSnapshot& h : histograms) {
    if (h.unit == Unit::kSeconds) continue;
    out += "h " + h.name + " " + std::to_string(h.count) + " " +
           FmtDouble(h.sum) + " " + FmtDouble(h.min) + " " +
           FmtDouble(h.max);
    for (const auto& [index, n] : h.buckets) {
      out += " " + std::to_string(index) + ":" + std::to_string(n);
    }
    out += "\n";
  }
  return out;
}

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  auto merge_into = [](auto& mine, const auto& theirs, auto combine) {
    for (const auto& t : theirs) {
      auto it = std::lower_bound(
          mine.begin(), mine.end(), t,
          [](const auto& a, const auto& b) { return a.name < b.name; });
      if (it != mine.end() && it->name == t.name) {
        combine(*it, t);
      } else {
        mine.insert(it, t);
      }
    }
  };
  merge_into(counters, other.counters,
             [](CounterSnapshot& a, const CounterSnapshot& b) {
               a.value += b.value;
             });
  merge_into(gauges, other.gauges,
             [](GaugeSnapshot& a, const GaugeSnapshot& b) {
               a.value = b.value;
             });
  merge_into(histograms, other.histograms,
             [](HistogramSnapshot& a, const HistogramSnapshot& b) {
               a.Merge(b);
             });
}

// ---- MetricsRegistry ----

struct MetricsRegistry::Impl {
  mutable std::mutex mu;
  // deques: stable element addresses under growth (handles are cached).
  std::deque<Counter> counters;
  std::deque<Gauge> gauges;
  std::deque<Histogram> histograms;
  std::map<std::string, Counter*, std::less<>> counter_index;
  std::map<std::string, Gauge*, std::less<>> gauge_index;
  std::map<std::string, Histogram*, std::less<>> histogram_index;
};

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  static Impl* impl = new Impl();  // leaked: usable during static teardown
  return *impl;
}

Counter& MetricsRegistry::GetCounter(std::string_view name, Unit unit) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto it = im.counter_index.find(name);
  if (it != im.counter_index.end()) return *it->second;
  Counter& c = im.counters.emplace_back(std::string(name), unit);
  im.counter_index.emplace(c.name(), &c);
  return c;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name, Unit unit) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto it = im.gauge_index.find(name);
  if (it != im.gauge_index.end()) return *it->second;
  Gauge& g = im.gauges.emplace_back(std::string(name), unit);
  im.gauge_index.emplace(g.name(), &g);
  return g;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name, Unit unit) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto it = im.histogram_index.find(name);
  if (it != im.histogram_index.end()) return *it->second;
  Histogram& h =
      im.histograms.emplace_back(std::string(name), unit);
  im.histogram_index.emplace(h.name(), &h);
  return h;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  MetricsSnapshot snap;
  snap.counters.reserve(im.counter_index.size());
  for (const auto& [name, c] : im.counter_index) {
    snap.counters.push_back(CounterSnapshot{name, c->unit(), c->Value()});
  }
  snap.gauges.reserve(im.gauge_index.size());
  for (const auto& [name, g] : im.gauge_index) {
    snap.gauges.push_back(GaugeSnapshot{name, g->unit(), g->Value()});
  }
  snap.histograms.reserve(im.histogram_index.size());
  for (const auto& [name, h] : im.histogram_index) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.unit = h->unit();
    int64_t merged_buckets[Histogram::kNumBuckets] = {};
    bool any = false;
    for (const Histogram::Shard& s : h->shards_) {
      const int64_t n = s.count.load(std::memory_order_relaxed);
      if (n == 0) continue;
      hs.count += n;
      hs.sum += s.sum.load(std::memory_order_relaxed);
      const double lo = s.min.load(std::memory_order_relaxed);
      const double hi = s.max.load(std::memory_order_relaxed);
      if (!any) {
        hs.min = lo;
        hs.max = hi;
        any = true;
      } else {
        hs.min = std::min(hs.min, lo);
        hs.max = std::max(hs.max, hi);
      }
      for (int b = 0; b < Histogram::kNumBuckets; ++b) {
        merged_buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
      }
    }
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      if (merged_buckets[b] != 0) {
        hs.buckets.emplace_back(b, merged_buckets[b]);
      }
    }
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

void MetricsRegistry::Reset() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  for (Counter& c : im.counters) c.Reset();
  for (Gauge& g : im.gauges) g.Reset();
  for (Histogram& h : im.histograms) h.Reset();
}

}  // namespace owan::obs
