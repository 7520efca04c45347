// Telemetry subsystem tests: registry semantics (counter/gauge/histogram
// cells, cross-thread merge, thread-retirement fold, bucket placement),
// exporter formats (Prometheus text, snapshot JSON roundtrip through the
// bundled reader, trace_event JSON), the CLI option validator, and the
// determinism contract: toggling telemetry at runtime must not change a
// byte of the serving layer's cost/count output.
//
// The registry is a process-wide leaky singleton, so every test uses its
// own metric names (test_* prefix) and asserts on the values those names
// accumulate — never on global registry state.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "server/server.h"
#include "telemetry/export.h"
#include "telemetry/health.h"
#include "telemetry/http_server.h"
#include "telemetry/snapshot_reader.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_span.h"
#include "trace/generators.h"

namespace wmlp::telemetry {
namespace {

// Collects and returns the snapshot for one metric name; fails the test if
// absent.
MetricSnapshot Find(const std::string& name) {
  for (const MetricSnapshot& m : Registry::Get().Collect()) {
    if (m.name == name) return m;
  }
  ADD_FAILURE() << "metric not found: " << name;
  return MetricSnapshot{};
}

bool Registered(const std::string& name) {
  for (const MetricSnapshot& m : Registry::Get().Collect()) {
    if (m.name == name) return true;
  }
  return false;
}

TEST(RegistryTest, CounterAccumulatesAndHandleIsIdempotent) {
  Counter& c = Registry::Get().GetCounter("test_counter_total");
  c.Inc();
  c.Add(41);
  EXPECT_EQ(Find("test_counter_total").counter_value, 42u);
  // Same name returns the same cell.
  Registry::Get().GetCounter("test_counter_total").Inc();
  EXPECT_EQ(Find("test_counter_total").counter_value, 43u);
}

TEST(RegistryTest, GaugeSetOverwritesThisThreadsContribution) {
  Gauge& g = Registry::Get().GetGauge("test_gauge");
  g.Set(2.5);
  g.Set(7.25);  // overwrite, not add
  EXPECT_DOUBLE_EQ(Find("test_gauge").gauge_value, 7.25);
  g.Add(0.75);
  EXPECT_DOUBLE_EQ(Find("test_gauge").gauge_value, 8.0);
}

TEST(RegistryTest, MergesAcrossLiveAndRetiredThreads) {
  Counter& c = Registry::Get().GetCounter("test_mt_total");
  Gauge& g = Registry::Get().GetGauge("test_mt_gauge");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &g] {
      for (int i = 0; i < kIncrements; ++i) c.Inc();
      g.Set(1.5);  // additive-gauge convention: exported value is the sum
    });
  }
  for (std::thread& t : threads) t.join();
  // All worker threads have exited, so this also exercises the
  // retire-and-fold path (their shards are gone, the values must not be).
  EXPECT_EQ(Find("test_mt_total").counter_value,
            static_cast<uint64_t>(kThreads) * kIncrements);
  EXPECT_DOUBLE_EQ(Find("test_mt_gauge").gauge_value, kThreads * 1.5);
}

TEST(RegistryTest, PowerOfTwoHistogramBucketPlacement) {
  Histogram& h = Registry::Get().GetHistogram("test_pow2_hist",
                                              HistogramLayout::PowerOfTwo());
  h.Observe(0.0);    // bucket 0
  h.Observe(1.0);    // bucket 0 (v < 2)
  h.Observe(2.0);    // bucket 1
  h.Observe(3.9);    // bucket 1
  h.Observe(4.0);    // bucket 2
  h.Observe(1e300);  // clamped into bucket 63
  h.Observe(std::numeric_limits<double>::quiet_NaN());  // dropped
  const MetricSnapshot m = Find("test_pow2_hist");
  ASSERT_EQ(m.bucket_counts.size(), 64u);
  EXPECT_EQ(m.hist_count, 6u);
  EXPECT_EQ(m.bucket_counts[0], 2u);
  EXPECT_EQ(m.bucket_counts[1], 2u);
  EXPECT_EQ(m.bucket_counts[2], 1u);
  EXPECT_EQ(m.bucket_counts[63], 1u);
  EXPECT_DOUBLE_EQ(m.hist_sum, 0.0 + 1.0 + 2.0 + 3.9 + 4.0 + 1e300);
}

TEST(RegistryTest, ExplicitHistogramUsesInclusiveUpperEdges) {
  Histogram& h = Registry::Get().GetHistogram(
      "test_explicit_hist", HistogramLayout::Explicit({1.0, 10.0, 100.0}));
  h.Observe(1.0);    // == bound: bucket 0 (inclusive)
  h.Observe(1.5);    // bucket 1
  h.Observe(10.0);   // bucket 1
  h.Observe(99.0);   // bucket 2
  h.Observe(100.5);  // overflow bucket 3
  const MetricSnapshot m = Find("test_explicit_hist");
  ASSERT_EQ(m.bucket_counts.size(), 4u);
  EXPECT_FALSE(m.pow2);
  EXPECT_EQ(m.bucket_counts[0], 1u);
  EXPECT_EQ(m.bucket_counts[1], 2u);
  EXPECT_EQ(m.bucket_counts[2], 1u);
  EXPECT_EQ(m.bucket_counts[3], 1u);
}

TEST(RegistryTest, ResetValuesForTestZeroesValuesButKeepsHandles) {
  Counter& c = Registry::Get().GetCounter("test_reset_total");
  c.Add(5);
  // Reset zeroes EVERY metric in the process; only safe because tests in
  // this binary assert on their own names after their own writes.
  Registry::Get().ResetValuesForTest();
  EXPECT_EQ(Find("test_reset_total").counter_value, 0u);
  c.Add(3);  // old handle still points at the (zeroed) cell
  EXPECT_EQ(Find("test_reset_total").counter_value, 3u);
}

TEST(ExportTest, PrometheusTextFormatsTypesAndLabels) {
  Registry::Get().GetCounter("test_prom_total{shard=\"3\"}").Add(5);
  Registry::Get().GetGauge("test_prom_gauge").Set(1.5);
  Histogram& h = Registry::Get().GetHistogram(
      "test_prom_hist", HistogramLayout::Explicit({1.0, 2.0}));
  h.Observe(0.5);
  h.Observe(1.5);
  h.Observe(9.0);
  std::ostringstream os;
  WritePrometheusText(os, Registry::Get().Collect());
  const std::string text = os.str();
  EXPECT_NE(text.find("test_prom_total{shard=\"3\"} 5"), std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE test_prom_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("test_prom_gauge 1.5"), std::string::npos);
  // Histogram exposition: cumulative buckets, +Inf, _count and _sum.
  EXPECT_NE(text.find("test_prom_hist_bucket{le=\"1\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("test_prom_hist_bucket{le=\"2\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_count 3"), std::string::npos);
}

TEST(ExportTest, SnapshotJsonRoundTripsThroughTheReader) {
  Registry::Get().GetCounter("test_rt_total").Add(7);
  Registry::Get().GetGauge("test_rt_gauge").Set(-2.5);
  Histogram& h = Registry::Get().GetHistogram("test_rt_hist",
                                              HistogramLayout::PowerOfTwo());
  h.Observe(5.0);

  const std::string path = testing::TempDir() + "/telemetry_rt.json";
  std::string err;
  ASSERT_TRUE(WriteSnapshotJson(path, 1.25, &err)) << err;

  SnapshotFile snapshot;
  ASSERT_TRUE(ReadSnapshotFile(path, &snapshot, &err)) << err;
  EXPECT_EQ(snapshot.schema, "wmlp-telemetry-snapshot-v1");
  EXPECT_DOUBLE_EQ(snapshot.uptime_seconds, 1.25);

  bool saw_counter = false, saw_gauge = false, saw_hist = false;
  for (const MetricSnapshot& m : snapshot.metrics) {
    if (m.name == "test_rt_total") {
      saw_counter = true;
      EXPECT_EQ(m.type, MetricType::kCounter);
      EXPECT_EQ(m.counter_value, 7u);
    } else if (m.name == "test_rt_gauge") {
      saw_gauge = true;
      EXPECT_DOUBLE_EQ(m.gauge_value, -2.5);
    } else if (m.name == "test_rt_hist") {
      saw_hist = true;
      EXPECT_TRUE(m.pow2);
      ASSERT_EQ(m.bucket_counts.size(), 64u);
      EXPECT_GE(m.hist_count, 1u);
      EXPECT_GE(m.bucket_counts[2], 1u);  // 5.0 -> [4, 8)
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_hist);
  std::remove(path.c_str());
}

TEST(ExportTest, TraceEventsJsonParsesAndPreservesFields) {
  std::vector<TraceEvent> events;
  events.push_back(TraceEvent{"alpha", "cat_a", 1000, 2500, 0});
  events.push_back(TraceEvent{"beta", "cat_b", 4000, 1, 3});
  const std::string json = TraceEventsToJson(events);

  JsonValue doc;
  std::string err;
  ASSERT_TRUE(ParseJson(json, &doc, &err)) << err;
  const JsonValue* trace_events = doc.Find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_TRUE(trace_events->is_array());
  ASSERT_EQ(trace_events->array.size(), 2u);
  const JsonValue& alpha = trace_events->array[0];
  EXPECT_EQ(alpha.Find("name")->string_value, "alpha");
  EXPECT_EQ(alpha.Find("cat")->string_value, "cat_a");
  EXPECT_EQ(alpha.Find("ph")->string_value, "X");
  EXPECT_DOUBLE_EQ(alpha.Find("ts")->number_value, 1.0);    // 1000 ns -> µs
  EXPECT_DOUBLE_EQ(alpha.Find("dur")->number_value, 2.5);
  EXPECT_DOUBLE_EQ(trace_events->array[1].Find("tid")->number_value, 3.0);
}

TEST(ValidateOptionsTest, AcceptsTheCommonShapes) {
  TelemetryRunOptions options;
  EXPECT_EQ(ValidateTelemetryRunOptions(options), "");  // all off
  options.telemetry_out = "snap.json";
  options.trace_out = "trace.json";
  options.stats_interval = 1.0;
  EXPECT_EQ(ValidateTelemetryRunOptions(options), "");
}

TEST(ValidateOptionsTest, RejectsBadIntervalsAndPaths) {
  TelemetryRunOptions options;
  options.stats_interval = -1.0;
  EXPECT_NE(ValidateTelemetryRunOptions(options), "");
  options.stats_interval = 0.001;  // below the 10 ms floor
  EXPECT_NE(ValidateTelemetryRunOptions(options), "");
  options.stats_interval = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(ValidateTelemetryRunOptions(options), "");
  options.stats_interval = 1e9;  // above one day
  EXPECT_NE(ValidateTelemetryRunOptions(options), "");

  options.stats_interval = 0.0;
  options.telemetry_out = "same.json";
  options.trace_out = "same.json";
  EXPECT_NE(ValidateTelemetryRunOptions(options), "");

  options.trace_out.clear();
  options.telemetry_out = std::string("bad\npath.json");
  EXPECT_NE(ValidateTelemetryRunOptions(options), "");
}

TEST(TracerTest, SpansRecordOnlyWhileArmed) {
  // Drain whatever instrumentation buffered before this test.
  Tracer::Drain();
  { TraceSpan span("test.unarmed", "test"); }
  EXPECT_TRUE(Tracer::Drain().empty());

  Tracer::Arm();
  { TraceSpan span("test.armed", "test"); }
  Tracer::Disarm();
  { TraceSpan span("test.after", "test"); }
  bool saw_armed = false;
  for (const TraceEvent& e : Tracer::Drain()) {
    EXPECT_STRNE(e.name, "test.unarmed");
    EXPECT_STRNE(e.name, "test.after");
    if (std::string(e.name) == "test.armed") {
      saw_armed = true;
      EXPECT_GE(e.duration_ns, 0);
    }
  }
  EXPECT_TRUE(saw_armed);
}

// --- The determinism contract -------------------------------------------
//
// ServeTrace's cost/count fields must be bitwise identical with the span
// tracer armed and disarmed; telemetry observes, it never steers.

std::string ReportCsv(const ServeReport& report) {
  std::ostringstream os;
  os.precision(17);
  os << "requests," << report.requests << "\n";
  os << "eviction_cost," << report.totals.eviction_cost << "\n";
  os << "fetch_cost," << report.totals.fetch_cost << "\n";
  os << "hits," << report.totals.hits << "\n";
  os << "misses," << report.totals.misses << "\n";
  os << "evictions," << report.totals.evictions << "\n";
  os << "fetches," << report.totals.fetches << "\n";
  for (size_t s = 0; s < report.shards.size(); ++s) {
    const ShardReport& sr = report.shards[s];
    os << "shard" << s << "," << sr.requests << ","
       << sr.result.eviction_cost << "," << sr.result.fetch_cost << ","
       << sr.result.hits << "," << sr.result.misses << ","
       << sr.result.evictions << "," << sr.result.fetches << "\n";
  }
  return os.str();
}

TEST(DeterminismTest, TelemetryOnOffLeavesServeCsvByteIdentical) {
  Instance inst(48, 12, 2,
                MakeWeights(48, 2, WeightModel::kZipfPages, 8.0, 3));
  const Trace trace =
      GenZipf(std::move(inst), 3000, 0.9, LevelMix::UniformMix(2), 11);
  ServeOptions options;
  options.policy = "waterfill";
  options.shards = 3;
  options.clients = 2;
  options.batch = 64;
  options.seed = 42;

  // Telemetry fully quiet: tracer disarmed.
  Tracer::Disarm();
  const std::string off_csv = ReportCsv(ServeTrace(trace, options));

  // Telemetry fully loud: tracer armed, spans recording.
  Tracer::Arm();
  const std::string on_csv = ReportCsv(ServeTrace(trace, options));
  Tracer::Disarm();
  Tracer::Drain();  // discard the buffered spans

  EXPECT_EQ(off_csv, on_csv);
}

// The full observability plane — per-shard watchdog observers, the
// time-series sampler ticking fast, and the live HTTP endpoint being
// scraped — must leave every cost/count byte unchanged. The plane only
// reads serve-path state; this is the test that keeps it that way.
TEST(DeterminismTest, ObservabilityPlaneLeavesServeCsvByteIdentical) {
  Instance inst(48, 12, 2,
                MakeWeights(48, 2, WeightModel::kZipfPages, 8.0, 3));
  const Trace trace =
      GenZipf(std::move(inst), 3000, 0.9, LevelMix::UniformMix(2), 13);
  ServeOptions options;
  options.policy = "waterfill";
  options.shards = 3;
  options.clients = 2;
  options.batch = 64;
  options.seed = 42;

  // Plane fully off.
  const std::string off_csv = ReportCsv(ServeTrace(trace, options));

  // Plane fully on: sampler at the minimum period, endpoint live and
  // scraped mid-session, watchdogs attached with a generous threshold.
  health::CostRatioHealth::Get().ResetForTest();
  TelemetryRunOptions topts;
  topts.sample_interval = 0.01;
  topts.sample_retention = 128;
  topts.http_port = 0;
  TelemetrySession session(topts);
  ASSERT_TRUE(session.start_error().empty()) << session.start_error();
  ServeOptions on = options;
  on.watchdog = true;
  on.watchdog_threshold = 1e6;
  const std::string on_csv = ReportCsv(ServeTrace(trace, on));
  int status = 0;
  std::string body, err;
  ASSERT_TRUE(HttpGet("127.0.0.1", session.http_port(), "/metrics",
                      &status, &body, &err))
      << err;
  EXPECT_EQ(status, 200);
  ASSERT_TRUE(HttpGet("127.0.0.1", session.http_port(), "/healthz",
                      &status, &body, &err))
      << err;
  EXPECT_EQ(status, 200) << "watchdog tripped a 1e6 threshold: " << body;
  ASSERT_TRUE(session.Finish(&err)) << err;

  EXPECT_EQ(off_csv, on_csv);

  // And the watchdog actually observed the run.
  const health::HealthSnapshot snap =
      health::CostRatioHealth::Get().Snapshot();
  EXPECT_EQ(snap.sources, 3);
  EXPECT_GT(snap.alg_cost, 0.0);
}

// Serves a small Zipf trace on two shards from zeroed metric values. The
// per-request counts live in the objects that do the work and reach the
// registry when ServeTrace destroys its shard policies, so once it returns
// the published totals must equal what was counted.
void ServeFromZeroedMetrics(const std::string& policy) {
  Instance inst(32, 8, 2,
                MakeWeights(32, 2, WeightModel::kZipfPages, 4.0, 3));
  const Trace trace =
      GenZipf(std::move(inst), 2000, 0.9, LevelMix::UniformMix(2), 7);
  ServeOptions options;
  options.policy = policy;
  options.shards = 2;
  options.clients = 2;
  options.batch = 32;
  Registry::Get().ResetValuesForTest();
  (void)ServeTrace(trace, options);
}

TEST(InstrumentationTest, ServeRunPopulatesHotPathCounters) {
  ServeFromZeroedMetrics("waterfill");
  EXPECT_EQ(Find("wmlp_engine_steps_total").counter_value, 2000u);
  const uint64_t misses = Find("wmlp_engine_misses_total").counter_value;
  EXPECT_GT(misses, 0u);
  // Waterfill inserts exactly one heap entry per miss (fetch or replace).
  EXPECT_EQ(Find("wmlp_waterfill_heap_push_total").counter_value, misses);
  EXPECT_GT(Find("wmlp_inbox_pop_requests_total").counter_value, 0u);
  EXPECT_GT(Find("wmlp_inbox_holdback_depth").hist_count, 0u);
  EXPECT_GT(Find("wmlp_serve_shard_requests_total{shard=\"0\"}")
                .counter_value,
            0u);
  EXPECT_TRUE(Registered("wmlp_serve_runs_total"));
}

TEST(InstrumentationTest, RandomizedServeRunPopulatesSolverCounters) {
  ServeFromZeroedMetrics("randomized");
  // The fractional stack serves every request exactly once.
  EXPECT_EQ(Find("wmlp_fractional_serve_total").counter_value,
            Find("wmlp_engine_steps_total").counter_value);
  EXPECT_GT(Find("wmlp_fractional_newton_iterations_total").counter_value,
            0u);
}

}  // namespace
}  // namespace wmlp::telemetry
