// Observability plane integration tests: the embedded HTTP scrape
// endpoint (routes, producers, lifecycle, bind failures), the
// system/process collector, and the TelemetrySession wiring that ties
// sampler + collector + endpoint together. Everything binds 127.0.0.1
// with ephemeral ports, so tests cannot collide with each other or with
// anything else on the host.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "telemetry/export.h"
#include "telemetry/health.h"
#include "telemetry/http_server.h"
#include "telemetry/snapshot_reader.h"
#include "telemetry/system_stats.h"
#include "telemetry/telemetry.h"

namespace wmlp::telemetry {
namespace {

TEST(HttpServerTest, ServesMetricsVarsAndHealthz) {
  health::CostRatioHealth::Get().ResetForTest();
  Registry::Get().GetCounter("obstest_scrape_total").Inc();
  MetricsHttpServer server;
  std::string err;
  ASSERT_TRUE(server.Start(0, &err)) << err;
  ASSERT_GT(server.port(), 0);

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGet("127.0.0.1", server.port(), "/metrics", &status,
                      &body, &err))
      << err;
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("obstest_scrape_total"), std::string::npos);

  ASSERT_TRUE(
      HttpGet("127.0.0.1", server.port(), "/vars", &status, &body, &err))
      << err;
  EXPECT_EQ(status, 200);
  SnapshotFile snapshot;
  ASSERT_TRUE(ParseSnapshot(body, &snapshot, &err)) << err;
  EXPECT_EQ(snapshot.schema, "wmlp-telemetry-snapshot-v1");

  ASSERT_TRUE(HttpGet("127.0.0.1", server.port(), "/healthz", &status,
                      &body, &err))
      << err;
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body.rfind("ok", 0), 0u);

  // The endpoint counts its own scrapes (always-on metric: it lives in
  // src/telemetry/, outside the kEnabled gate).
  ASSERT_TRUE(HttpGet("127.0.0.1", server.port(), "/metrics", &status,
                      &body, &err))
      << err;
  EXPECT_NE(body.find("wmlp_http_requests_total"), std::string::npos);

  ASSERT_TRUE(HttpGet("127.0.0.1", server.port(), "/nope", &status, &body,
                      &err))
      << err;
  EXPECT_EQ(status, 404);
  server.Stop();
  server.Stop();  // idempotent
}

TEST(HttpServerTest, ProducersOverrideDefaults) {
  MetricsHttpServer server;
  server.set_vars_producer([] { return std::string("custom-vars"); });
  server.set_health_producer([](std::string* detail) {
    *detail = "ratio too high";
    return false;
  });
  std::string err;
  ASSERT_TRUE(server.Start(0, &err)) << err;

  int status = 0;
  std::string body;
  ASSERT_TRUE(
      HttpGet("127.0.0.1", server.port(), "/vars", &status, &body, &err))
      << err;
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "custom-vars");

  ASSERT_TRUE(HttpGet("127.0.0.1", server.port(), "/healthz", &status,
                      &body, &err))
      << err;
  EXPECT_EQ(status, 503);
  EXPECT_NE(body.find("ratio too high"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, RejectsBusyPort) {
  MetricsHttpServer first;
  std::string err;
  ASSERT_TRUE(first.Start(0, &err)) << err;
  MetricsHttpServer second;
  EXPECT_FALSE(second.Start(first.port(), &err));
  EXPECT_FALSE(err.empty());
  first.Stop();
}

TEST(SystemStatsTest, SamplesProcSelfGracefully) {
  SystemStatsCollector collector;
  const SystemSample sample = collector.Sample();
#ifdef __linux__
  ASSERT_TRUE(sample.valid);
  EXPECT_GT(sample.rss_bytes, 0.0);
  EXPECT_GE(sample.vm_bytes, sample.rss_bytes);
  EXPECT_GE(sample.threads, 1);
  EXPECT_GE(sample.open_fds, 3);  // stdin/stdout/stderr at minimum
  EXPECT_GE(sample.utime_seconds, 0.0);
  EXPECT_GE(sample.stime_seconds, 0.0);
  // First sample has no previous observation: CPU% must be 0, not junk.
  EXPECT_DOUBLE_EQ(sample.cpu_percent, 0.0);
  const SystemSample second = collector.Sample();
  EXPECT_GE(second.cpu_percent, 0.0);
#else
  EXPECT_FALSE(sample.valid);
#endif
  // Hardware counters may be unavailable (perf_event_paranoid, seccomp);
  // either way the fields must be coherent.
  if (sample.hw.available) {
    EXPECT_GT(sample.hw.cycles + sample.hw.instructions, 0u);
  } else {
    EXPECT_EQ(sample.hw.cycles, 0u);
  }
}

TEST(SystemStatsTest, PublishGaugesMirrorsSample) {
  SystemSample sample;
  sample.valid = true;
  sample.rss_bytes = 12345.0;
  sample.threads = 3;
  SystemStatsCollector::PublishGauges(sample);
  bool found = false;
  for (const MetricSnapshot& m : Registry::Get().Collect()) {
    if (m.name == "wmlp_process_rss_bytes") {
      found = true;
      EXPECT_DOUBLE_EQ(m.gauge_value, 12345.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(TelemetrySessionTest, HttpPortWiresSamplerAndEndpoint) {
  health::CostRatioHealth::Get().ResetForTest();
  TelemetryRunOptions options;
  options.http_port = 0;  // ephemeral; auto-enables the 1 s sampler
  TelemetrySession session(options);
  ASSERT_TRUE(session.start_error().empty()) << session.start_error();
  ASSERT_GT(session.http_port(), 0);

  int status = 0;
  std::string body, err;
  ASSERT_TRUE(HttpGet("127.0.0.1", session.http_port(), "/vars", &status,
                      &body, &err))
      << err;
  EXPECT_EQ(status, 200);
  SnapshotFile snapshot;
  ASSERT_TRUE(ParseSnapshot(body, &snapshot, &err)) << err;
  EXPECT_TRUE(snapshot.has_timeseries);

  ASSERT_TRUE(session.Finish(&err)) << err;
  // The endpoint is down after Finish.
  EXPECT_FALSE(HttpGet("127.0.0.1", session.http_port(), "/vars", &status,
                       &body, &err));
}

TEST(TelemetrySessionTest, PortFileRecordsBoundPort) {
  const std::string port_file =
      ::testing::TempDir() + "/obstest_port.txt";
  TelemetryRunOptions options;
  options.http_port = 0;
  options.http_port_file = port_file;
  {
    TelemetrySession session(options);
    ASSERT_TRUE(session.start_error().empty()) << session.start_error();
    std::ifstream in(port_file);
    ASSERT_TRUE(in.good()) << "port file not written";
    int recorded = 0;
    in >> recorded;
    EXPECT_EQ(recorded, session.http_port());
    std::string err;
    ASSERT_TRUE(session.Finish(&err)) << err;
  }
  std::remove(port_file.c_str());
}

TEST(TelemetrySessionTest, SamplerSectionLandsInSnapshotFile) {
  const std::string out = ::testing::TempDir() + "/obstest_snapshot.json";
  TelemetryRunOptions options;
  options.telemetry_out = out;
  options.sample_interval = 0.01;
  options.sample_retention = 32;
  {
    TelemetrySession session(options);
    ASSERT_TRUE(session.start_error().empty()) << session.start_error();
    std::string err;
    ASSERT_TRUE(session.Finish(&err)) << err;
  }
  SnapshotFile snapshot;
  std::string err;
  ASSERT_TRUE(ReadSnapshotFile(out, &snapshot, &err)) << err;
  EXPECT_TRUE(snapshot.has_timeseries);
  EXPECT_EQ(snapshot.timeseries.retention, 32);
#ifdef __linux__
  EXPECT_TRUE(snapshot.has_system);
  EXPECT_TRUE(snapshot.system.valid);
#endif
  std::remove(out.c_str());
}

// --stats-interval has no thread of its own: the sampler runs at that
// period and its tick prints the Prometheus dump on stderr.
TEST(TelemetrySessionTest, StatsIntervalDumpsFromTheSamplerTick) {
  Registry::Get().GetCounter("obstest_dump_total").Add(3);
  const std::string out = ::testing::TempDir() + "/obstest_dump.json";
  TelemetryRunOptions options;
  options.telemetry_out = out;
  options.stats_interval = 0.01;
  ::testing::internal::CaptureStderr();
  {
    TelemetrySession session(options);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    std::string err;
    EXPECT_TRUE(session.Finish(&err)) << err;
  }
  const std::string dump = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(dump.find("# wmlp telemetry t="), std::string::npos) << dump;
  EXPECT_NE(dump.find("# TYPE obstest_dump_total counter\n"
                      "obstest_dump_total 3\n"),
            std::string::npos)
      << dump;
  SnapshotFile snapshot;
  std::string err;
  ASSERT_TRUE(ReadSnapshotFile(out, &snapshot, &err)) << err;
  ASSERT_TRUE(snapshot.has_timeseries);
  EXPECT_DOUBLE_EQ(snapshot.timeseries.period_seconds, 0.01);
  EXPECT_GE(snapshot.timeseries.ticks, 1);
  std::remove(out.c_str());
}

// With --sample-interval as well, the dump waits for the first tick at
// least --stats-interval after the previous dump, so a long interval
// stays quiet while the sampler ticks.
TEST(TelemetrySessionTest, StatsIntervalLongerThanTheSamplerPeriodWaits) {
  const std::string out = ::testing::TempDir() + "/obstest_quiet.json";
  TelemetryRunOptions options;
  options.telemetry_out = out;
  options.sample_interval = 0.01;
  options.stats_interval = 3600.0;
  ::testing::internal::CaptureStderr();
  {
    TelemetrySession session(options);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::string err;
    EXPECT_TRUE(session.Finish(&err)) << err;
  }
  const std::string dump = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(dump.find("# wmlp telemetry t="), std::string::npos) << dump;
  SnapshotFile snapshot;
  std::string err;
  ASSERT_TRUE(ReadSnapshotFile(out, &snapshot, &err)) << err;
  ASSERT_TRUE(snapshot.has_timeseries);
  EXPECT_GE(snapshot.timeseries.ticks, 1);
  std::remove(out.c_str());
}

}  // namespace
}  // namespace wmlp::telemetry
