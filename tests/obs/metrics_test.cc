#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "util/thread_pool.h"

namespace owan::obs {
namespace {

TEST(MetricsCounterTest, ConcurrentAddsSumExactly) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& c = reg.GetCounter("test.concurrent_adds", Unit::kOps);
  c.Reset();

  constexpr int kTasks = 64;
  constexpr int kAddsPerTask = 10000;
  util::ThreadPool pool(7);
  util::ParallelFor(&pool, kTasks, [&](int) {
    for (int i = 0; i < kAddsPerTask; ++i) c.Add(1);
  });
  EXPECT_EQ(c.Value(), int64_t{kTasks} * kAddsPerTask);

  c.Reset();
  EXPECT_EQ(c.Value(), 0);
}

TEST(MetricsCounterTest, RegistryReturnsSameHandleForSameName) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& a = reg.GetCounter("test.same_handle", Unit::kOps);
  Counter& b = reg.GetCounter("test.same_handle", Unit::kGigabits);
  EXPECT_EQ(&a, &b);
  // Unit is fixed at first registration.
  EXPECT_EQ(a.unit(), Unit::kOps);
}

TEST(MetricsGaugeTest, LastWriteWins) {
  Gauge& g = MetricsRegistry::Global().GetGauge("test.gauge", Unit::kNone);
  g.Set(1.5);
  g.Set(-7.25);
  EXPECT_DOUBLE_EQ(g.Value(), -7.25);
}

TEST(MetricsHistogramTest, ConcurrentRecordsKeepCountSumExtremes) {
  Histogram& h = MetricsRegistry::Global().GetHistogram(
      "test.concurrent_histo", Unit::kSimSeconds);
  h.Reset();

  constexpr int kTasks = 32;
  constexpr int kPerTask = 2000;
  util::ThreadPool pool(7);
  util::ParallelFor(&pool, kTasks, [&](int t) {
    for (int i = 0; i < kPerTask; ++i) {
      h.Record(static_cast<double>(t * kPerTask + i + 1));
    }
  });
  EXPECT_EQ(h.Count(), int64_t{kTasks} * kPerTask);

  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  const HistogramSnapshot* hs = nullptr;
  for (const auto& s : snap.histograms) {
    if (s.name == "test.concurrent_histo") hs = &s;
  }
  ASSERT_NE(hs, nullptr);
  const int64_t n = int64_t{kTasks} * kPerTask;
  EXPECT_EQ(hs->count, n);
  EXPECT_DOUBLE_EQ(hs->min, 1.0);
  EXPECT_DOUBLE_EQ(hs->max, static_cast<double>(n));
  // Sum of 1..n, accumulated in shards — exact for values this small.
  EXPECT_DOUBLE_EQ(hs->sum, 0.5 * static_cast<double>(n) *
                                static_cast<double>(n + 1));
  int64_t bucket_total = 0;
  for (const auto& [idx, cnt] : hs->buckets) bucket_total += cnt;
  EXPECT_EQ(bucket_total, n);
}

TEST(MetricsHistogramTest, BucketIndexRoundTrips) {
  for (double v : {1e-9, 0.001, 0.5, 1.0, 3.7, 1024.0, 1.5e9}) {
    const int idx = Histogram::BucketIndex(v);
    EXPECT_GE(v, Histogram::BucketLowerBound(idx)) << v;
    EXPECT_LT(v, Histogram::BucketUpperBound(idx)) << v;
  }
  // Non-positive and NaN go to the underflow bucket instead of crashing.
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(-4.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(std::nan("")), 0);
}

TEST(MetricsHistogramTest, PercentileWithinBucketResolution) {
  Histogram& h = MetricsRegistry::Global().GetHistogram("test.percentile",
                                                        Unit::kSimSeconds);
  h.Reset();
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<double>(i));
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  for (const auto& s : snap.histograms) {
    if (s.name != "test.percentile") continue;
    // Log-linear buckets are 25% wide; estimates must land within that.
    EXPECT_NEAR(s.Percentile(50), 500.0, 0.25 * 500.0);
    EXPECT_NEAR(s.Percentile(95), 950.0, 0.25 * 950.0);
    EXPECT_NEAR(s.Percentile(0), 1.0, 0.25);
    EXPECT_NEAR(s.Percentile(100), 1000.0, 0.25 * 1000.0);
    EXPECT_DOUBLE_EQ(s.Mean(), 500.5);
  }
}

TEST(MetricsHistogramTest, PercentileOfZeroSamplesIsZero) {
  Histogram& h = MetricsRegistry::Global().GetHistogram("test.zero_percentile",
                                                        Unit::kSimSeconds);
  h.Reset();
  for (double v : {0.0, 0.0, 0.0, 5.0}) h.Record(v);
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  bool found = false;
  for (const auto& s : snap.histograms) {
    if (s.name != "test.zero_percentile") continue;
    found = true;
    EXPECT_EQ(s.Percentile(50), 0.0);
    EXPECT_NEAR(s.Percentile(100), 5.0, 0.25 * 5.0);
  }
  EXPECT_TRUE(found);
}

TEST(MetricsHistogramTest, SnapshotMergeAddsBuckets) {
  Histogram& a =
      MetricsRegistry::Global().GetHistogram("test.merge_a", Unit::kNone);
  Histogram& b =
      MetricsRegistry::Global().GetHistogram("test.merge_b", Unit::kNone);
  a.Reset();
  b.Reset();
  for (int i = 0; i < 100; ++i) a.Record(1.0);
  for (int i = 0; i < 50; ++i) b.Record(64.0);

  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  HistogramSnapshot ha, hb;
  for (const auto& s : snap.histograms) {
    if (s.name == "test.merge_a") ha = s;
    if (s.name == "test.merge_b") hb = s;
  }
  ha.Merge(hb);
  EXPECT_EQ(ha.count, 150);
  EXPECT_DOUBLE_EQ(ha.sum, 100.0 + 50.0 * 64.0);
  EXPECT_DOUBLE_EQ(ha.min, 1.0);
  EXPECT_DOUBLE_EQ(ha.max, 64.0);
  int64_t total = 0;
  for (const auto& [idx, cnt] : ha.buckets) total += cnt;
  EXPECT_EQ(total, 150);
}

TEST(MetricsSnapshotTest, FingerprintExcludesWallClockOnly) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test.fp_counter", Unit::kOps).Add(3);
  reg.GetHistogram("test.fp_sim", Unit::kSimSeconds).Record(2.0);
  reg.GetHistogram("test.fp_wall", Unit::kSeconds).Record(0.125);

  const std::string fp = reg.Snapshot().DeterministicFingerprint();
  EXPECT_NE(fp.find("test.fp_counter"), std::string::npos);
  EXPECT_NE(fp.find("test.fp_sim"), std::string::npos);
  EXPECT_EQ(fp.find("test.fp_wall"), std::string::npos);
}

TEST(MetricsSnapshotTest, ToJsonContainsSections) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test.json_counter", Unit::kGigabits).Add(7);
  const std::string js = reg.Snapshot().ToJson();
  EXPECT_NE(js.find("\"owan_metrics\""), std::string::npos);
  EXPECT_NE(js.find("\"counters\""), std::string::npos);
  EXPECT_NE(js.find("\"test.json_counter\""), std::string::npos);
  EXPECT_NE(js.find("\"Gb\""), std::string::npos);
}

TEST(MetricsEnabledTest, DisablingStopsMacroWritesNotDirectWrites) {
  // SetMetricsEnabled gates the OWAN_* macros (tested via the annealing
  // integration test); direct handle writes always land.
  ASSERT_TRUE(MetricsEnabled());
  SetMetricsEnabled(false);
  EXPECT_FALSE(MetricsEnabled());
  SetMetricsEnabled(true);
  EXPECT_TRUE(MetricsEnabled());
}

}  // namespace
}  // namespace owan::obs
