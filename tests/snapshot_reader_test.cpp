// Snapshot reader robustness battery: the parser must reject truncated
// documents, duplicate object keys, non-finite numerics and non-JSON
// number syntax, and every snapshot and trace rule the reader documents
// (snapshot_reader.h) has a negative case here. Accept cases roundtrip
// through the real exporters (SnapshotToJson, TraceEventsToJson) so the
// reader and writers can never drift apart silently.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "telemetry/export.h"
#include "telemetry/snapshot_reader.h"
#include "telemetry/system_stats.h"
#include "telemetry/telemetry.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace_span.h"

namespace wmlp::telemetry {
namespace {

bool Rejects(const std::string& text) {
  SnapshotFile snapshot;
  std::string err;
  const bool ok = ParseSnapshot(text, &snapshot, &err);
  if (ok) return false;
  // Every rejection must come with a diagnosis.
  return !err.empty();
}

// A minimal valid document with optional extra sections spliced in after
// the metrics array.
std::string Doc(const std::string& extra) {
  return std::string("{\n  \"schema\": \"wmlp-telemetry-snapshot-v1\",\n") +
         "  \"uptime_seconds\": 1.0,\n  \"metrics\": []" + extra + "\n}\n";
}

// A document whose metrics array is `metrics`.
std::string MetricsDoc(const std::string& metrics,
                       const std::string& uptime = "1.0") {
  return std::string("{\"schema\": \"wmlp-telemetry-snapshot-v1\", ") +
         "\"uptime_seconds\": " + uptime + ", \"metrics\": [" + metrics +
         "]}";
}

std::string CounterJson(const std::string& name, const std::string& value) {
  return "{\"name\": \"" + name + "\", \"type\": \"counter\", " +
         "\"value\": " + value + "}";
}

std::string TimeseriesDoc(const std::string& series,
                          const std::string& header =
                              "\"period_seconds\": 1.0, \"retention\": 4, "
                              "\"ticks\": 2") {
  return Doc(",\n  \"timeseries\": {" + header + ", \"series\": [" + series +
             "]}");
}

const char kGoodSystem[] =
    ",\n  \"system\": {\"valid\": true, \"rss_bytes\": 1024, "
    "\"vm_bytes\": 4096, \"threads\": 2, \"open_fds\": 5, "
    "\"cpu_percent\": 12.5, \"utime_seconds\": 1.5, "
    "\"stime_seconds\": 0.5, \"hw\": {\"available\": true, "
    "\"cycles\": 100, \"instructions\": 250, \"cache_misses\": 7}}";

TEST(SnapshotReaderTest, ExporterRoundtripWithPlaneSections) {
  SamplerSnapshot ts;
  ts.period_seconds = 0.5;
  ts.retention = 8;
  ts.ticks = 3;
  MetricSeries counter;
  counter.name = "roundtrip_total";
  counter.type = MetricType::kCounter;
  counter.times = {0.0, 0.5, 1.0};
  counter.values = {0.0, 10.0, 30.0};
  counter.rates = {20.0, 40.0};
  ts.series.push_back(counter);
  MetricSeries hist;
  hist.name = "roundtrip_hist";
  hist.type = MetricType::kHistogram;
  hist.times = {0.0, 0.5};
  hist.values = {5.0, 25.0};
  hist.rates = {40.0};
  hist.has_quantiles = true;
  hist.window_count = 20;
  hist.p50 = 3.0;
  hist.p99 = 7.5;
  hist.p999 = 7.9;
  ts.series.push_back(hist);

  SystemSample sys;
  sys.valid = true;
  sys.rss_bytes = 8192.0;
  sys.vm_bytes = 65536.0;
  sys.threads = 4;
  sys.open_fds = 12;
  sys.cpu_percent = 42.5;
  sys.utime_seconds = 2.25;
  sys.stime_seconds = 0.75;
  sys.hw.available = true;
  sys.hw.cycles = 123456;
  sys.hw.instructions = 654321;
  sys.hw.cache_misses = 42;

  const std::string json = SnapshotToJson({}, 2.5, &ts, &sys);
  SnapshotFile parsed;
  std::string err;
  ASSERT_TRUE(ParseSnapshot(json, &parsed, &err)) << err;

  ASSERT_TRUE(parsed.has_timeseries);
  EXPECT_DOUBLE_EQ(parsed.timeseries.period_seconds, 0.5);
  EXPECT_EQ(parsed.timeseries.retention, 8);
  EXPECT_EQ(parsed.timeseries.ticks, 3);
  ASSERT_EQ(parsed.timeseries.series.size(), 2u);
  for (const MetricSeries& s : parsed.timeseries.series) {
    if (s.name == "roundtrip_total") {
      EXPECT_EQ(s.type, MetricType::kCounter);
      EXPECT_EQ(s.values, counter.values);
      EXPECT_EQ(s.rates, counter.rates);
      EXPECT_FALSE(s.has_quantiles);
    } else {
      EXPECT_EQ(s.type, MetricType::kHistogram);
      ASSERT_TRUE(s.has_quantiles);
      EXPECT_EQ(s.window_count, 20);
      EXPECT_DOUBLE_EQ(s.p50, 3.0);
      EXPECT_DOUBLE_EQ(s.p999, 7.9);
    }
  }

  ASSERT_TRUE(parsed.has_system);
  EXPECT_TRUE(parsed.system.valid);
  EXPECT_DOUBLE_EQ(parsed.system.rss_bytes, 8192.0);
  EXPECT_EQ(parsed.system.threads, 4);
  EXPECT_EQ(parsed.system.open_fds, 12);
  EXPECT_TRUE(parsed.system.hw.available);
  EXPECT_EQ(parsed.system.hw.cycles, 123456u);
  EXPECT_EQ(parsed.system.hw.cache_misses, 42u);
}

TEST(SnapshotReaderTest, PlaneSectionsAreOptional) {
  SnapshotFile parsed;
  std::string err;
  ASSERT_TRUE(ParseSnapshot(Doc(""), &parsed, &err)) << err;
  EXPECT_FALSE(parsed.has_timeseries);
  EXPECT_FALSE(parsed.has_system);
}

// Older snapshots carry a "telemetry_compiled" flag the writer no longer
// emits; the reader ignores keys it does not read.
TEST(SnapshotReaderTest, OlderSnapshotWithCompiledFlagReads) {
  SnapshotFile parsed;
  std::string err;
  ASSERT_TRUE(ParseSnapshot(
      "{\"schema\": \"wmlp-telemetry-snapshot-v1\", "
      "\"telemetry_compiled\": false, \"uptime_seconds\": 2.0, "
      "\"metrics\": [" + CounterJson("old_total", "3") + "]}",
      &parsed, &err))
      << err;
  ASSERT_EQ(parsed.metrics.size(), 1u);
  EXPECT_EQ(parsed.metrics[0].counter_value, 3u);
}

TEST(SnapshotReaderTest, TruncatedDocumentsAreRejected) {
  const std::string full = SnapshotToJson({}, 1.0);
  // Any cut inside the document body must fail loudly, never yield a
  // half-parsed snapshot. (Cutting only the trailing newline stays valid.)
  for (const size_t keep :
       {size_t{1}, full.size() / 4, full.size() / 2, full.size() - 2}) {
    EXPECT_TRUE(Rejects(full.substr(0, keep))) << "kept " << keep;
  }
}

TEST(SnapshotReaderTest, DuplicateObjectKeysAreRejected) {
  JsonValue value;
  std::string err;
  EXPECT_FALSE(ParseJson("{\"a\": 1, \"a\": 2}", &value, &err));
  EXPECT_NE(err.find("duplicate"), std::string::npos);
  // And through the snapshot path.
  EXPECT_TRUE(Rejects(
      "{\"schema\": \"wmlp-telemetry-snapshot-v1\", \"schema\": "
      "\"wmlp-telemetry-snapshot-v1\", \"uptime_seconds\": 0, "
      "\"metrics\": []}"));
}

TEST(SnapshotReaderTest, NonFiniteNumericsAreRejected) {
  JsonValue value;
  std::string err;
  EXPECT_FALSE(ParseJson("[1e999]", &value, &err));     // overflows to inf
  EXPECT_FALSE(ParseJson("[NaN]", &value, &err));       // not a JSON token
  EXPECT_FALSE(ParseJson("[Infinity]", &value, &err));  // not a JSON token
  EXPECT_TRUE(Rejects(Doc(",\n  \"bogus\": 1e999")));
}

TEST(SnapshotReaderTest, TimeseriesAcceptBattery) {
  SnapshotFile parsed;
  std::string err;
  // Counter with rates.
  ASSERT_TRUE(ParseSnapshot(
      TimeseriesDoc("{\"name\": \"c\", \"type\": \"counter\", "
                    "\"times\": [0, 1], \"values\": [0, 5], "
                    "\"rates\": [5]}"),
      &parsed, &err))
      << err;
  ASSERT_TRUE(parsed.has_timeseries);
  ASSERT_EQ(parsed.timeseries.series.size(), 1u);
  EXPECT_EQ(parsed.timeseries.series[0].name, "c");

  // Gauge without rates; histogram with the full quantile block; repeated
  // times (a stalled clock) are legal — only going backwards is not.
  ASSERT_TRUE(ParseSnapshot(
      TimeseriesDoc("{\"name\": \"g\", \"type\": \"gauge\", "
                    "\"times\": [0, 0], \"values\": [1.5, 2.5]},\n"
                    "{\"name\": \"h\", \"type\": \"histogram\", "
                    "\"times\": [0, 1], \"values\": [3, 9], "
                    "\"rates\": [6], \"window_count\": 6, \"p50\": 2, "
                    "\"p99\": 4, \"p999\": 4.5}"),
      &parsed, &err))
      << err;
  // Empty series list is fine (sampler registered no metrics yet).
  ASSERT_TRUE(ParseSnapshot(TimeseriesDoc(""), &parsed, &err)) << err;
}

TEST(SnapshotReaderTest, TimeseriesRejectBattery) {
  // times/values length mismatch.
  EXPECT_TRUE(Rejects(
      TimeseriesDoc("{\"name\": \"c\", \"type\": \"counter\", "
                    "\"times\": [0, 1], \"values\": [0]}")));
  // rates must have exactly times - 1 entries when present.
  EXPECT_TRUE(Rejects(
      TimeseriesDoc("{\"name\": \"c\", \"type\": \"counter\", "
                    "\"times\": [0, 1], \"values\": [0, 5], "
                    "\"rates\": [5, 6]}")));
  // Times going backwards.
  EXPECT_TRUE(Rejects(
      TimeseriesDoc("{\"name\": \"c\", \"type\": \"counter\", "
                    "\"times\": [1, 0], \"values\": [0, 5]}")));
  // Quantiles on a non-histogram series.
  EXPECT_TRUE(Rejects(
      TimeseriesDoc("{\"name\": \"c\", \"type\": \"counter\", "
                    "\"times\": [0], \"values\": [0], "
                    "\"window_count\": 1, \"p50\": 1, \"p99\": 1, "
                    "\"p999\": 1}")));
  // Partial quantile block (window_count without p50/p99/p999).
  EXPECT_TRUE(Rejects(
      TimeseriesDoc("{\"name\": \"h\", \"type\": \"histogram\", "
                    "\"times\": [0], \"values\": [0], "
                    "\"window_count\": 1}")));
  // Negative window_count.
  EXPECT_TRUE(Rejects(
      TimeseriesDoc("{\"name\": \"h\", \"type\": \"histogram\", "
                    "\"times\": [0], \"values\": [0], "
                    "\"window_count\": -1, \"p50\": 0, \"p99\": 0, "
                    "\"p999\": 0}")));
  // Unknown series type.
  EXPECT_TRUE(Rejects(
      TimeseriesDoc("{\"name\": \"m\", \"type\": \"meter\", "
                    "\"times\": [0], \"values\": [0]}")));
  // A series longer than the declared retention.
  EXPECT_TRUE(Rejects(TimeseriesDoc(
      "{\"name\": \"c\", \"type\": \"counter\", "
      "\"times\": [0, 1, 2, 3, 4], \"values\": [0, 1, 2, 3, 4]}")));
  // Bad section header fields.
  EXPECT_TRUE(Rejects(TimeseriesDoc(
      "", "\"period_seconds\": 0, \"retention\": 4, \"ticks\": 2")));
  EXPECT_TRUE(Rejects(TimeseriesDoc(
      "", "\"period_seconds\": 1, \"retention\": 1, \"ticks\": 2")));
  EXPECT_TRUE(Rejects(TimeseriesDoc(
      "", "\"period_seconds\": 1, \"retention\": 4, \"ticks\": -1")));
  // retention, ticks and window_count are integers.
  EXPECT_TRUE(Rejects(TimeseriesDoc(
      "", "\"period_seconds\": 1, \"retention\": 4.5, \"ticks\": 2")));
  EXPECT_TRUE(Rejects(TimeseriesDoc(
      "", "\"period_seconds\": 1, \"retention\": 4, \"ticks\": 2.5")));
  EXPECT_TRUE(Rejects(
      TimeseriesDoc("{\"name\": \"h\", \"type\": \"histogram\", "
                    "\"times\": [0], \"values\": [0], "
                    "\"window_count\": 1.5, \"p50\": 0, \"p99\": 0, "
                    "\"p999\": 0}")));
  // A quantile block without window_count is as partial as one without p50.
  EXPECT_TRUE(Rejects(
      TimeseriesDoc("{\"name\": \"h\", \"type\": \"histogram\", "
                    "\"times\": [0], \"values\": [0], \"p50\": 1}")));
  // Series names are non-empty.
  EXPECT_TRUE(Rejects(
      TimeseriesDoc("{\"name\": \"\", \"type\": \"counter\", "
                    "\"times\": [0], \"values\": [0]}")));
}

TEST(SnapshotReaderTest, SystemAcceptAndRejectBattery) {
  SnapshotFile parsed;
  std::string err;
  ASSERT_TRUE(ParseSnapshot(Doc(kGoodSystem), &parsed, &err)) << err;
  ASSERT_TRUE(parsed.has_system);
  EXPECT_EQ(parsed.system.open_fds, 5);
  EXPECT_EQ(parsed.system.hw.instructions, 250u);

  auto broken = [](const std::string& from, const std::string& to) {
    std::string doc(kGoodSystem);
    const size_t at = doc.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    doc.replace(at, from.size(), to);
    return Doc(doc);
  };
  // Negative resource fields.
  EXPECT_TRUE(Rejects(broken("\"rss_bytes\": 1024", "\"rss_bytes\": -1")));
  EXPECT_TRUE(Rejects(broken("\"threads\": 2", "\"threads\": -2")));
  // open_fds -1 means "unavailable"; anything lower is corrupt.
  EXPECT_TRUE(Rejects(broken("\"open_fds\": 5", "\"open_fds\": -2")));
  // Negative hardware counters.
  EXPECT_TRUE(Rejects(broken("\"cycles\": 100", "\"cycles\": -100")));
  // Missing hw object.
  EXPECT_TRUE(Rejects(broken(
      "\"hw\": {\"available\": true, \"cycles\": 100, "
      "\"instructions\": 250, \"cache_misses\": 7}",
      "\"hw\": 3")));
  // Wrong type for valid.
  EXPECT_TRUE(Rejects(broken("\"valid\": true", "\"valid\": 1")));
  // cpu%, utime and stime are non-negative.
  EXPECT_TRUE(
      Rejects(broken("\"cpu_percent\": 12.5", "\"cpu_percent\": -1")));
  EXPECT_TRUE(
      Rejects(broken("\"utime_seconds\": 1.5", "\"utime_seconds\": -1")));
  EXPECT_TRUE(
      Rejects(broken("\"stime_seconds\": 0.5", "\"stime_seconds\": -1")));
  // threads, open_fds and the hw counters are integers.
  EXPECT_TRUE(Rejects(broken("\"threads\": 2", "\"threads\": 2.5")));
  EXPECT_TRUE(Rejects(broken("\"open_fds\": 5", "\"open_fds\": 4.5")));
  EXPECT_FALSE(Rejects(broken("\"open_fds\": 5", "\"open_fds\": -1")));
  EXPECT_TRUE(Rejects(broken("\"cycles\": 100", "\"cycles\": 1e2")));
  EXPECT_TRUE(
      Rejects(broken("\"cache_misses\": 7", "\"cache_misses\": 7.5")));
}

// The four malformed snapshots an earlier reader accepted.
TEST(SnapshotReaderTest, DocumentsTheOldReaderAcceptedAreRejected) {
  // Negative uptime and a counter of -5 (which the old reader stored
  // through a double -> uint64_t cast).
  EXPECT_TRUE(Rejects(MetricsDoc(CounterJson("c", "-5"), "-1.0")));
  EXPECT_TRUE(Rejects(MetricsDoc(CounterJson("c", "-5"))));
  EXPECT_TRUE(Rejects(MetricsDoc("", "-1.0")));
  // A counter of 1e30.
  EXPECT_TRUE(Rejects(MetricsDoc(CounterJson("c", "1e30"))));
  // Decreasing explicit bounds, and count 7 over buckets summing to 3.
  const std::string bad_hist =
      "{\"name\": \"h\", \"type\": \"histogram\", \"count\": 7, "
      "\"sum\": 1.0, \"layout\": \"explicit\", \"bounds\": [10, 1], "
      "\"counts\": [1, 1, 1]}";
  EXPECT_TRUE(Rejects(MetricsDoc(bad_hist)));
  // A duplicated metric name.
  EXPECT_TRUE(Rejects(
      MetricsDoc(CounterJson("c", "1") + ", " + CounterJson("c", "2"))));
}

TEST(SnapshotReaderTest, MetricRulesRejectBattery) {
  ASSERT_FALSE(Rejects(MetricsDoc(CounterJson("c", "5"))));
  // Names are non-empty.
  EXPECT_TRUE(Rejects(MetricsDoc(CounterJson("", "5"))));
  // Counter values are non-negative integer literals within 64 bits.
  EXPECT_TRUE(Rejects(MetricsDoc(CounterJson("c", "5.0"))));
  EXPECT_TRUE(Rejects(MetricsDoc(CounterJson("c", "5e0"))));
  EXPECT_TRUE(Rejects(MetricsDoc(CounterJson("c", "18446744073709551616"))));
  // Unique names across types.
  EXPECT_TRUE(Rejects(MetricsDoc(
      CounterJson("m", "1") +
      ", {\"name\": \"m\", \"type\": \"gauge\", \"value\": 1}")));

  auto hist = [](const std::string& count, const std::string& layout,
                 const std::string& counts) {
    return MetricsDoc("{\"name\": \"h\", \"type\": \"histogram\", "
                      "\"count\": " + count + ", \"sum\": 3.0, " + layout +
                      ", \"counts\": [" + counts + "]}");
  };
  const std::string expl = "\"layout\": \"explicit\", \"bounds\": [1, 10]";
  ASSERT_FALSE(Rejects(hist("3", expl, "1, 2, 0")));
  // Histogram counts and bucket counts are non-negative integers.
  EXPECT_TRUE(Rejects(hist("-3", expl, "1, 2, 0")));
  EXPECT_TRUE(Rejects(hist("3.5", expl, "1, 2, 0")));
  EXPECT_TRUE(Rejects(hist("3", expl, "1, 2.5, -0.5")));
  EXPECT_TRUE(Rejects(hist("3", expl, "4, -1, 0")));
  // Buckets sum to count.
  EXPECT_TRUE(Rejects(hist("7", expl, "1, 2, 0")));
  // Explicit bounds strictly increase (equal bounds too are rejected).
  EXPECT_TRUE(Rejects(
      hist("3", "\"layout\": \"explicit\", \"bounds\": [1, 1]", "1, 2, 0")));
  // pow2 layouts carry no bounds.
  std::string sixty_four = "3";
  for (int i = 1; i < 64; ++i) sixty_four += ", 0";
  ASSERT_FALSE(Rejects(hist("3", "\"layout\": \"pow2\"", sixty_four)));
  EXPECT_TRUE(Rejects(hist(
      "3", "\"layout\": \"pow2\", \"bounds\": []", sixty_four)));
}

TEST(SnapshotReaderTest, IntegersAreReadExactly) {
  SnapshotFile parsed;
  std::string err;
  ASSERT_TRUE(ParseSnapshot(
      MetricsDoc(CounterJson("c", "18446744073709551615")), &parsed, &err))
      << err;
  ASSERT_EQ(parsed.metrics.size(), 1u);
  EXPECT_EQ(parsed.metrics[0].counter_value, 18446744073709551615u);
  // 2^53 + 1 has no double; the literal's exact value survives.
  ASSERT_TRUE(ParseSnapshot(MetricsDoc(CounterJson("c", "9007199254740993")),
                            &parsed, &err))
      << err;
  EXPECT_EQ(parsed.metrics[0].counter_value, 9007199254740993u);
}

TEST(SnapshotReaderTest, NumberGrammarIsStrictJson) {
  JsonValue value;
  std::string err;
  for (const char* bad : {"[01]", "[+1]", "[.5]", "[1.]", "[1e]", "[-]",
                          "[1.5.2]", "[0x10]"}) {
    EXPECT_FALSE(ParseJson(bad, &value, &err)) << bad;
  }
  for (const char* good : {"[0]", "[-0]", "[10]", "[1.5]", "[-2.5e-3]",
                           "[1E+2]", "[1e-400]"}) {
    EXPECT_TRUE(ParseJson(good, &value, &err)) << good << ": " << err;
  }
}

bool TraceRejects(const std::string& events) {
  std::size_t count = 0;
  std::string err;
  const bool ok = ParseTrace(
      "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [" + events + "]}",
      &count, &err);
  return !ok && !err.empty();
}

TEST(SnapshotReaderTest, TraceRules) {
  std::vector<TraceEvent> events;
  events.push_back(TraceEvent{"alpha", "cat_a", 1000, 2500, 0});
  events.push_back(TraceEvent{"beta", "cat_b", 4000, 1, 3});
  std::size_t count = 0;
  std::string err;
  ASSERT_TRUE(ParseTrace(TraceEventsToJson(events), &count, &err)) << err;
  EXPECT_EQ(count, 2u);
  ASSERT_TRUE(ParseTrace(TraceEventsToJson({}), &count, &err)) << err;
  EXPECT_EQ(count, 0u);

  auto event = [](const std::string& from, const std::string& to) {
    std::string e =
        "{\"name\": \"n\", \"cat\": \"c\", \"ph\": \"X\", \"pid\": 1, "
        "\"tid\": 2, \"ts\": 1.5, \"dur\": 0.25}";
    if (!from.empty()) e.replace(e.find(from), from.size(), to);
    return e;
  };
  ASSERT_FALSE(TraceRejects(event("", "")));
  EXPECT_TRUE(TraceRejects(event("\"ph\": \"X\"", "\"ph\": \"B\"")));
  EXPECT_TRUE(TraceRejects(event("\"name\": \"n\"", "\"name\": \"\"")));
  EXPECT_TRUE(TraceRejects(event("\"cat\": \"c\", ", "")));
  EXPECT_TRUE(TraceRejects(event("\"pid\": 1", "\"pid\": 1.5")));
  EXPECT_TRUE(TraceRejects(event("\"tid\": 2", "\"tid\": -2")));
  EXPECT_TRUE(TraceRejects(event("\"ts\": 1.5", "\"ts\": -1.5")));
  EXPECT_TRUE(TraceRejects(event("\"dur\": 0.25", "\"dur\": -0.25")));
  EXPECT_TRUE(TraceRejects("3"));
  EXPECT_FALSE(ParseTrace("{\"traceEvents\": {}}", &count, &err));
  EXPECT_FALSE(ParseTrace("[]", &count, &err));
}

}  // namespace
}  // namespace wmlp::telemetry
