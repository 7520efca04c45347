// Telemetry exporters and the CLI-facing run-options surface.
//
//   WritePrometheusText   Prometheus text exposition of a Collect()ed
//                         snapshot (counters/gauges as-is, histograms as
//                         _count/_sum/_bucket{le=...} with cumulative
//                         buckets).
//   SnapshotToJson /      the "wmlp-telemetry-snapshot-v1" JSON document
//   WriteSnapshotJson     (its rules and only validator:
//                         telemetry/snapshot_reader.h, run on files by
//                         `wmlp_stats --check`).
//   WriteTraceJson        drains the tracer into a Chrome/Perfetto
//                         trace_event file.
//   TelemetryRunOptions + the --telemetry-out/--trace-out/--stats-interval
//   TelemetrySession      contract shared by wmlp_run / wmlp_wbrun /
//                         wmlp_serve (and fuzzed by fuzz_serve_config).
//
// Everything here works in telemetry-OFF builds too: the registry simply
// holds no instrumented values, so snapshots come out schema-valid with
// `"telemetry_compiled": false` and an empty (or tool-populated) metric set.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "telemetry/system_stats.h"
#include "telemetry/telemetry.h"
#include "telemetry/timeseries.h"

namespace wmlp::telemetry {

void WritePrometheusText(std::ostream& os,
                         const std::vector<MetricSnapshot>& metrics);

std::string SnapshotToJson(const std::vector<MetricSnapshot>& metrics,
                           double uptime_seconds);

// Extended form: appends the observability-plane sections when non-null —
// "timeseries" (sampler ring buffers) and "system" (process/HW sample).
// Omitted sections simply do not appear; readers treat them as optional.
std::string SnapshotToJson(const std::vector<MetricSnapshot>& metrics,
                           double uptime_seconds,
                           const SamplerSnapshot* timeseries,
                           const SystemSample* system);

// Collects the registry and writes the snapshot JSON to `path`. Returns
// false (with `*err` set) on I/O failure.
bool WriteSnapshotJson(const std::string& path, double uptime_seconds,
                       std::string* err);

// Drains the tracer and writes trace_event JSON to `path`. Warns on stderr
// if events were dropped at the per-thread buffer cap.
bool WriteTraceJson(const std::string& path, std::string* err);

// The telemetry options every instrumented tool accepts. Empty path / zero
// interval = that output disabled; http_port -1 = no HTTP endpoint.
struct TelemetryRunOptions {
  std::string telemetry_out;     // --telemetry-out: snapshot JSON path
  std::string trace_out;         // --trace-out: Perfetto trace path
  double stats_interval = 0.0;   // --stats-interval: least seconds
                                 // between stderr stats dumps
  double sample_interval = 0.0;  // --sample-interval: time-series sampler
                                 // period (0 = sampler off)
  int64_t sample_retention = 600;  // --sample-retention: ring-buffer points
  int http_port = -1;            // --http-port: -1 off, 0 ephemeral,
                                 // else a fixed port on 127.0.0.1
  std::string http_port_file;    // --http-port-file: write the bound port
                                 // here (scripts/CI with --http-port 0)
};

// Returns "" when the options are usable, else a human-readable error.
// Rejects non-finite/negative intervals, intervals outside [0.01 s, 1 day],
// control characters in paths, both outputs aimed at the same file,
// sampler periods outside [0.01 s, 1 h], retention outside [2, 2^20],
// ports outside [-1, 65535], and a port file without an endpoint.
std::string ValidateTelemetryRunOptions(const TelemetryRunOptions& options);

// RAII wrapper a tool creates after flag parsing: arms the tracer when a
// trace is requested, runs the time-series sampler + system collector and
// the HTTP scrape endpoint; on Finish() (or destruction) stops them and
// writes the requested snapshot/trace files (the snapshot includes the
// timeseries/system sections whenever the sampler ran).
//
// The sampler thread is the session's only background thread besides the
// HTTP server's. Its tick also prints the --stats-interval dump (a
// "# wmlp telemetry t=<uptime>s" line, then Prometheus text) on stderr:
// the dump fires on the first tick at least --stats-interval after the
// previous dump, so it is never more frequent than the sampler. Without
// --sample-interval the sampler runs at the --stats-interval period (at
// most 1 h) and dumps every tick; with neither flag but --http-port it
// runs at 1 s, since a scrape endpoint with no history is almost never
// what an operator wants, and the sampler is a pure registry reader.
class TelemetrySession {
 public:
  // `options` must already be validated; a non-empty validation error here
  // aborts (programmer error, not user error).
  explicit TelemetrySession(const TelemetryRunOptions& options);
  ~TelemetrySession();
  TelemetrySession(const TelemetrySession&) = delete;
  TelemetrySession& operator=(const TelemetrySession&) = delete;

  // Non-empty when a runtime start step failed (HTTP port already bound,
  // unwritable port file). Check right after construction; validation
  // cannot catch these. The session is still usable — the failed component
  // is simply absent.
  const std::string& start_error() const;

  // The bound HTTP port (0 when no endpoint is running). With
  // --http-port 0 this is the ephemeral port the kernel picked.
  int http_port() const;

  // Stops the threads, disarms the tracer, writes the output files.
  // Idempotent. Returns false with `*err` set on the first I/O failure.
  bool Finish(std::string* err);

 private:
  struct Impl;
  Impl* impl_;  // manual pimpl; freed in the destructor
};

}  // namespace wmlp::telemetry
