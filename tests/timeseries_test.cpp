// Time-series sampler tests, driven deterministically through the public
// SampleOnce(now) hook — no sleeping, no wall clock. The registry is a
// process-wide singleton, so each test uses its own tstest_* metric names
// and locates its series by name in the snapshot.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "telemetry/export.h"
#include "telemetry/snapshot_reader.h"
#include "telemetry/telemetry.h"
#include "telemetry/timeseries.h"
#include "util/stats.h"

namespace wmlp::telemetry {
namespace {

const MetricSeries* FindSeries(const SamplerSnapshot& snapshot,
                               const std::string& name) {
  for (const MetricSeries& s : snapshot.series) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

TEST(TimeseriesOptionsTest, ValidatorRejectsOutOfRange) {
  TimeseriesOptions options;
  EXPECT_EQ(ValidateTimeseriesOptions(options), "");
  options.period_seconds = 0.001;
  EXPECT_NE(ValidateTimeseriesOptions(options), "");
  options.period_seconds = 4000.0;
  EXPECT_NE(ValidateTimeseriesOptions(options), "");
  options.period_seconds = 1.0;
  options.retention = 1;
  EXPECT_NE(ValidateTimeseriesOptions(options), "");
  options.retention = (int64_t{1} << 20) + 1;
  EXPECT_NE(ValidateTimeseriesOptions(options), "");
}

TEST(TimeseriesSamplerTest, CounterSeriesDerivesRates) {
  Counter& c = Registry::Get().GetCounter("tstest_rate_total");
  TimeseriesOptions options;
  options.retention = 16;
  TimeseriesSampler sampler(options);

  sampler.SampleOnce(0.0);
  c.Add(100);
  sampler.SampleOnce(1.0);
  c.Add(300);
  sampler.SampleOnce(3.0);

  const SamplerSnapshot snapshot = sampler.Snapshot();
  EXPECT_EQ(snapshot.ticks, 3);
  const MetricSeries* s = FindSeries(snapshot, "tstest_rate_total");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->type, MetricType::kCounter);
  ASSERT_EQ(s->times.size(), 3u);
  ASSERT_EQ(s->values.size(), 3u);
  // Values are absolute; rates are per-second deltas pairing with the
  // later tick: (100-0)/1 = 100, (400-100)/2 = 150.
  EXPECT_DOUBLE_EQ(s->values[1] - s->values[0], 100.0);
  EXPECT_DOUBLE_EQ(s->values[2] - s->values[0], 400.0);
  ASSERT_EQ(s->rates.size(), 2u);
  EXPECT_DOUBLE_EQ(s->rates[0], 100.0);
  EXPECT_DOUBLE_EQ(s->rates[1], 150.0);
  EXPECT_FALSE(s->has_quantiles);
}

TEST(TimeseriesSamplerTest, GaugeSeriesKeepsValuesWithoutRates) {
  Gauge& g = Registry::Get().GetGauge("tstest_gauge");
  TimeseriesOptions options;
  options.retention = 8;
  TimeseriesSampler sampler(options);
  g.Set(2.5);
  sampler.SampleOnce(0.0);
  g.Set(7.25);
  sampler.SampleOnce(1.0);

  const SamplerSnapshot snapshot = sampler.Snapshot();
  const MetricSeries* s = FindSeries(snapshot, "tstest_gauge");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->type, MetricType::kGauge);
  ASSERT_EQ(s->values.size(), 2u);
  EXPECT_DOUBLE_EQ(s->values[0], 2.5);
  EXPECT_DOUBLE_EQ(s->values[1], 7.25);
  EXPECT_TRUE(s->rates.empty());
}

TEST(TimeseriesSamplerTest, RetentionEvictsOldestPoints) {
  Registry::Get().GetCounter("tstest_retention_total").Inc();
  TimeseriesOptions options;
  options.retention = 2;
  TimeseriesSampler sampler(options);
  sampler.SampleOnce(0.0);
  sampler.SampleOnce(1.0);
  sampler.SampleOnce(2.0);

  const SamplerSnapshot snapshot = sampler.Snapshot();
  EXPECT_EQ(snapshot.ticks, 3);
  EXPECT_EQ(snapshot.retention, 2);
  const MetricSeries* s =
      FindSeries(snapshot, "tstest_retention_total");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->times.size(), 2u);
  EXPECT_DOUBLE_EQ(s->times[0], 1.0);
  EXPECT_DOUBLE_EQ(s->times[1], 2.0);
  ASSERT_EQ(s->rates.size(), 1u);
}

TEST(TimeseriesSamplerTest, HistogramWindowQuantilesComeFromDeltas) {
  Histogram& h = Registry::Get().GetHistogram(
      "tstest_hist", HistogramLayout::PowerOfTwo());
  TimeseriesOptions options;
  options.retention = 8;
  TimeseriesSampler sampler(options);

  // Samples recorded BEFORE the first tick fall outside the window
  // (newest-minus-oldest bucket deltas), so quantiles reflect only the
  // 100 in-window observations of 5.0 (pow2 bucket [4, 8)).
  for (int i = 0; i < 40; ++i) h.Observe(1000.0);
  sampler.SampleOnce(0.0);
  for (int i = 0; i < 100; ++i) h.Observe(5.0);
  sampler.SampleOnce(1.0);

  const SamplerSnapshot snapshot = sampler.Snapshot();
  const MetricSeries* s = FindSeries(snapshot, "tstest_hist");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->type, MetricType::kHistogram);
  ASSERT_TRUE(s->has_quantiles);
  EXPECT_EQ(s->window_count, 100);
  // Linear interpolation inside [4, 8): p50 = 4 + 0.5 * 4 = 6.
  EXPECT_NEAR(s->p50, 6.0, 1e-9);
  EXPECT_NEAR(s->p99, 7.96, 1e-9);
  EXPECT_NEAR(s->p999, 7.996, 1e-9);
  // Values track the histogram's cumulative count; the rate covers the
  // 100 in-window samples over 1 second.
  ASSERT_EQ(s->rates.size(), 1u);
  EXPECT_DOUBLE_EQ(s->rates[0], 100.0);
}

// One quantile rule: the sampler's window quantiles and wmlp_stats's
// reading of a snapshot file (BucketQuantile over the parsed buckets) agree
// on the same buckets, including an explicit layout's overflow bucket,
// which reports its lower edge.
TEST(TimeseriesSamplerTest, WindowQuantilesMatchWmlpStatsOnTheSameBuckets) {
  Histogram& overflow = Registry::Get().GetHistogram(
      "tstest_overflow_hist", HistogramLayout::Explicit({1.0, 10.0}));
  Histogram& pow2 = Registry::Get().GetHistogram(
      "tstest_pow2_hist", HistogramLayout::PowerOfTwo());
  TimeseriesOptions options;
  options.retention = 4;
  TimeseriesSampler sampler(options);
  sampler.SampleOnce(0.0);
  for (int i = 0; i < 5; ++i) overflow.Observe(50.0);
  for (int i = 0; i < 100; ++i) pow2.Observe(5.0);
  sampler.SampleOnce(1.0);
  const SamplerSnapshot window = sampler.Snapshot();

  // Every sample landed inside the window, so the whole-histogram buckets
  // wmlp_stats reads from a snapshot file equal the window's deltas.
  SnapshotFile file;
  std::string err;
  ASSERT_TRUE(ParseSnapshot(SnapshotToJson(Registry::Get().Collect(), 1.0),
                            &file, &err))
      << err;
  for (const auto& [name, p50, p99] :
       {std::tuple{"tstest_overflow_hist", 10.0, 10.0},
        std::tuple{"tstest_pow2_hist", 6.0, 7.96}}) {
    const MetricSeries* s = FindSeries(window, name);
    ASSERT_NE(s, nullptr) << name;
    ASSERT_TRUE(s->has_quantiles);
    EXPECT_NEAR(s->p50, p50, 1e-9) << name;
    EXPECT_NEAR(s->p99, p99, 1e-9) << name;
    const MetricSnapshot* m = nullptr;
    for (const MetricSnapshot& candidate : file.metrics) {
      if (candidate.name == name) m = &candidate;
    }
    ASSERT_NE(m, nullptr) << name;
    EXPECT_EQ(BucketQuantile(m->bucket_counts, m->bounds, m->pow2, 0.5),
              s->p50)
        << name;
    EXPECT_EQ(BucketQuantile(m->bucket_counts, m->bounds, m->pow2, 0.99),
              s->p99)
        << name;
  }
}

TEST(TimeseriesSamplerTest, PreSampleHookRunsBeforeEveryTick) {
  TimeseriesOptions options;
  options.retention = 4;
  TimeseriesSampler sampler(options);
  int calls = 0;
  sampler.set_pre_sample_hook([&calls] { ++calls; });
  sampler.SampleOnce(0.0);
  sampler.SampleOnce(1.0);
  EXPECT_EQ(calls, 2);
}

TEST(TimeseriesSamplerTest, BackgroundThreadTicksAndStops) {
  Registry::Get().GetCounter("tstest_thread_total").Inc();
  TimeseriesOptions options;
  options.period_seconds = 0.01;
  options.retention = 64;
  TimeseriesSampler sampler(options);
  sampler.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  sampler.Stop();
  const int64_t ticks = sampler.Snapshot().ticks;
  EXPECT_GE(ticks, 1);
  // Stop is idempotent and final: no ticks after it.
  sampler.Stop();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(sampler.Snapshot().ticks, ticks);
}

}  // namespace
}  // namespace wmlp::telemetry
