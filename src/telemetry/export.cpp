#include "telemetry/export.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <ostream>
#include <sstream>

#include "telemetry/health.h"
#include "telemetry/http_server.h"
#include "telemetry/trace_span.h"
#include "util/check.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace wmlp::telemetry {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string FmtDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Splits "name{labels}" into its base and label list so histogram
// exposition can suffix the base and merge an `le` label.
void SplitLabels(const std::string& name, std::string* base,
                 std::string* labels) {
  std::size_t brace = name.find('{');
  if (brace == std::string::npos) {
    *base = name;
    labels->clear();
    return;
  }
  *base = name.substr(0, brace);
  // Interior of "{...}" (registration forbids nothing here; the writer just
  // echoes it back).
  std::size_t close = name.rfind('}');
  *labels = name.substr(brace + 1,
                        close == std::string::npos || close <= brace
                            ? std::string::npos
                            : close - brace - 1);
}

std::string WithLabels(const std::string& base, const std::string& labels) {
  if (labels.empty()) return base;
  return base + "{" + labels + "}";
}

std::string BucketUpperEdge(const MetricSnapshot& m, std::size_t bucket) {
  if (m.pow2) {
    if (bucket + 1 >= m.bucket_counts.size()) return "+Inf";
    return FmtDouble(std::ldexp(1.0, static_cast<int>(bucket) + 1));
  }
  if (bucket >= m.bounds.size()) return "+Inf";
  return FmtDouble(m.bounds[bucket]);
}

}  // namespace

void WritePrometheusText(std::ostream& os,
                         const std::vector<MetricSnapshot>& metrics) {
  for (const MetricSnapshot& m : metrics) {
    std::string base, labels;
    SplitLabels(m.name, &base, &labels);
    switch (m.type) {
      case MetricType::kCounter:
        os << "# TYPE " << base << " counter\n"
           << m.name << " " << m.counter_value << "\n";
        break;
      case MetricType::kGauge:
        os << "# TYPE " << base << " gauge\n"
           << m.name << " " << FmtDouble(m.gauge_value) << "\n";
        break;
      case MetricType::kHistogram: {
        os << "# TYPE " << base << " histogram\n";
        uint64_t cumulative = 0;
        for (std::size_t b = 0; b < m.bucket_counts.size(); ++b) {
          cumulative += m.bucket_counts[b];
          std::string le = "le=\"" + BucketUpperEdge(m, b) + "\"";
          std::string lab = labels.empty() ? le : labels + "," + le;
          os << WithLabels(base + "_bucket", lab) << " " << cumulative << "\n";
        }
        os << WithLabels(base + "_sum", labels) << " " << FmtDouble(m.hist_sum)
           << "\n"
           << WithLabels(base + "_count", labels) << " " << m.hist_count
           << "\n";
        break;
      }
    }
  }
}

namespace {

const char* MetricTypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "counter";  // unreachable
}

void AppendDoubleArray(std::ostringstream& os, const char* key,
                       const std::vector<double>& values) {
  os << "\"" << key << "\": [";
  for (std::size_t i = 0; i < values.size(); ++i) {
    os << (i ? "," : "") << FmtDouble(values[i]);
  }
  os << "]";
}

void AppendTimeseriesSection(std::ostringstream& os,
                             const SamplerSnapshot& ts) {
  os << ",\n  \"timeseries\": {\n"
     << "    \"period_seconds\": " << FmtDouble(ts.period_seconds) << ",\n"
     << "    \"retention\": " << ts.retention << ",\n"
     << "    \"ticks\": " << ts.ticks << ",\n"
     << "    \"series\": [";
  bool first = true;
  for (const MetricSeries& s : ts.series) {
    os << (first ? "\n" : ",\n") << "      {\"name\": \""
       << JsonEscape(s.name) << "\", \"type\": \"" << MetricTypeName(s.type)
       << "\", ";
    first = false;
    AppendDoubleArray(os, "times", s.times);
    os << ", ";
    AppendDoubleArray(os, "values", s.values);
    if (!s.rates.empty()) {
      os << ", ";
      AppendDoubleArray(os, "rates", s.rates);
    }
    if (s.has_quantiles) {
      os << ", \"window_count\": " << s.window_count
         << ", \"p50\": " << FmtDouble(s.p50)
         << ", \"p99\": " << FmtDouble(s.p99)
         << ", \"p999\": " << FmtDouble(s.p999);
    }
    os << "}";
  }
  os << "\n    ]\n  }";
}

void AppendSystemSection(std::ostringstream& os, const SystemSample& sys) {
  os << ",\n  \"system\": {\n"
     << "    \"valid\": " << (sys.valid ? "true" : "false") << ",\n"
     << "    \"rss_bytes\": " << FmtDouble(sys.rss_bytes) << ",\n"
     << "    \"vm_bytes\": " << FmtDouble(sys.vm_bytes) << ",\n"
     << "    \"threads\": " << sys.threads << ",\n"
     << "    \"open_fds\": " << sys.open_fds << ",\n"
     << "    \"cpu_percent\": " << FmtDouble(sys.cpu_percent) << ",\n"
     << "    \"utime_seconds\": " << FmtDouble(sys.utime_seconds) << ",\n"
     << "    \"stime_seconds\": " << FmtDouble(sys.stime_seconds) << ",\n"
     << "    \"hw\": {\"available\": "
     << (sys.hw.available ? "true" : "false") << ", \"cycles\": "
     << sys.hw.cycles << ", \"instructions\": " << sys.hw.instructions
     << ", \"cache_misses\": " << sys.hw.cache_misses << "}\n  }";
}

}  // namespace

std::string SnapshotToJson(const std::vector<MetricSnapshot>& metrics,
                           double uptime_seconds) {
  return SnapshotToJson(metrics, uptime_seconds, nullptr, nullptr);
}

std::string SnapshotToJson(const std::vector<MetricSnapshot>& metrics,
                           double uptime_seconds,
                           const SamplerSnapshot* timeseries,
                           const SystemSample* system) {
  std::ostringstream os;
  os << "{\n"
     << "  \"schema\": \"wmlp-telemetry-snapshot-v1\",\n"
     << "  \"telemetry_compiled\": " << (kEnabled ? "true" : "false") << ",\n"
     << "  \"uptime_seconds\": " << FmtDouble(uptime_seconds) << ",\n"
     << "  \"metrics\": [";
  bool first = true;
  for (const MetricSnapshot& m : metrics) {
    os << (first ? "\n" : ",\n") << "    {\"name\": \"" << JsonEscape(m.name)
       << "\", ";
    first = false;
    switch (m.type) {
      case MetricType::kCounter:
        os << "\"type\": \"counter\", \"value\": " << m.counter_value << "}";
        break;
      case MetricType::kGauge:
        os << "\"type\": \"gauge\", \"value\": " << FmtDouble(m.gauge_value)
           << "}";
        break;
      case MetricType::kHistogram: {
        os << "\"type\": \"histogram\", \"count\": " << m.hist_count
           << ", \"sum\": " << FmtDouble(m.hist_sum) << ", \"layout\": \""
           << (m.pow2 ? "pow2" : "explicit") << "\"";
        if (!m.pow2) {
          os << ", \"bounds\": [";
          for (std::size_t i = 0; i < m.bounds.size(); ++i) {
            os << (i ? "," : "") << FmtDouble(m.bounds[i]);
          }
          os << "]";
        }
        os << ", \"counts\": [";
        for (std::size_t b = 0; b < m.bucket_counts.size(); ++b) {
          os << (b ? "," : "") << m.bucket_counts[b];
        }
        os << "]}";
        break;
      }
    }
  }
  os << "\n  ]";
  if (timeseries != nullptr) AppendTimeseriesSection(os, *timeseries);
  if (system != nullptr) AppendSystemSection(os, *system);
  os << "\n}\n";
  return os.str();
}

bool WriteSnapshotJson(const std::string& path, double uptime_seconds,
                       std::string* err) {
  std::string body =
      SnapshotToJson(Registry::Get().Collect(), uptime_seconds);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (err) *err = "cannot open telemetry snapshot file: " + path;
    return false;
  }
  out << body;
  out.flush();
  if (!out) {
    if (err) *err = "write failed for telemetry snapshot file: " + path;
    return false;
  }
  return true;
}

bool WriteTraceJson(const std::string& path, std::string* err) {
  std::vector<TraceEvent> events = Tracer::Drain();
  if (int64_t dropped = Tracer::dropped(); dropped > 0) {
    std::cerr << "warning: trace buffer cap dropped " << dropped
              << " events\n";
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (err) *err = "cannot open trace file: " + path;
    return false;
  }
  out << TraceEventsToJson(events);
  out.flush();
  if (!out) {
    if (err) *err = "write failed for trace file: " + path;
    return false;
  }
  return true;
}

std::string ValidateTelemetryRunOptions(const TelemetryRunOptions& options) {
  for (const std::string* path :
       {&options.telemetry_out, &options.trace_out, &options.http_port_file}) {
    for (char ch : *path) {
      if (static_cast<unsigned char>(ch) < 0x20) {
        return "telemetry output path contains control characters";
      }
    }
  }
  if (!options.telemetry_out.empty() &&
      options.telemetry_out == options.trace_out) {
    return "--telemetry-out and --trace-out must name different files";
  }
  if (!std::isfinite(options.stats_interval)) {
    return "--stats-interval must be finite";
  }
  if (options.stats_interval < 0.0) {
    return "--stats-interval must be >= 0";
  }
  // 0.0 is the exact "stats reporting off" sentinel, not a measurement.
  if (options.stats_interval != 0.0 &&  // wmlp-lint-allow(float-eq)
      (options.stats_interval < 0.01 || options.stats_interval > 86400.0)) {
    return "--stats-interval must be in [0.01, 86400] seconds (or 0 = off)";
  }
  if (!std::isfinite(options.sample_interval) ||
      options.sample_interval < 0.0) {
    return "--sample-interval must be finite and >= 0";
  }
  // 0.0 is the exact "sampler off" sentinel, same as stats_interval.
  if (options.sample_interval != 0.0 &&  // wmlp-lint-allow(float-eq)
      (options.sample_interval < 0.01 || options.sample_interval > 3600.0)) {
    return "--sample-interval must be in [0.01, 3600] seconds (or 0 = off)";
  }
  if (options.sample_retention < 2 ||
      options.sample_retention > (int64_t{1} << 20)) {
    return "--sample-retention must be in [2, 1048576] points";
  }
  if (options.http_port < -1 || options.http_port > 65535) {
    return "--http-port must be in [0, 65535] (0 = ephemeral)";
  }
  if (!options.http_port_file.empty() && options.http_port < 0) {
    return "--http-port-file requires --http-port";
  }
  return "";
}

struct TelemetrySession::Impl {
  TelemetryRunOptions options;
  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  bool finished = false;
  bool armed_tracer = false;

  // Observability plane (null when not requested).
  std::unique_ptr<SystemStatsCollector> system_collector;
  std::unique_ptr<TimeseriesSampler> sampler;
  std::unique_ptr<MetricsHttpServer> http;
  std::string start_error;
  int http_port = 0;

  // Latest system sample, written by the sampler tick, read by /vars.
  Mutex system_mu;
  SystemSample last_system GUARDED_BY(system_mu);
  bool have_system GUARDED_BY(system_mu) = false;

  double UptimeSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  }

  // The /vars body: the full snapshot document with whatever plane
  // sections are live. Called from the HTTP thread; every input is either
  // internally synchronized (registry, sampler) or copied under a lock.
  std::string VarsJson() {
    SamplerSnapshot ts;
    const SamplerSnapshot* ts_ptr = nullptr;
    if (sampler != nullptr) {
      ts = sampler->Snapshot();
      ts_ptr = &ts;
    }
    SystemSample sys;
    const SystemSample* sys_ptr = nullptr;
    {
      MutexLock lock(system_mu);
      if (have_system) {
        sys = last_system;
        sys_ptr = &sys;
      }
    }
    return SnapshotToJson(Registry::Get().Collect(), UptimeSeconds(), ts_ptr,
                          sys_ptr);
  }

  // --stats-interval: the Prometheus dump on stderr, printed from the
  // sampler's tick hook on the first tick at least one interval after the
  // previous dump (or the session start). Only the sampler thread touches
  // these once it runs.
  std::chrono::steady_clock::duration stats_period{};
  std::chrono::steady_clock::time_point last_dump = start;

  void MaybeDumpStats() {
    const auto now = std::chrono::steady_clock::now();
    if (now - last_dump < stats_period) return;
    last_dump = now;
    std::ostringstream os;
    os << "# wmlp telemetry t="
       << std::chrono::duration<double>(now - start).count() << "s\n";
    WritePrometheusText(os, Registry::Get().Collect());
    std::cerr << os.str();
  }
};

TelemetrySession::TelemetrySession(const TelemetryRunOptions& options)
    : impl_(new Impl) {
  std::string invalid = ValidateTelemetryRunOptions(options);
  WMLP_CHECK_MSG(invalid.empty(),
                 "TelemetrySession given unvalidated options");
  impl_->options = options;
  if (!options.trace_out.empty()) {
    Tracer::Arm();
    impl_->armed_tracer = true;
  }

  // Sampler + system collector. Without --sample-interval the sampler runs
  // at the --stats-interval period (capped at the sampler's 1 h maximum),
  // else at 1 s when --http-port asks for an endpoint, which is almost
  // never wanted without history (export.h).
  double sample_interval = options.sample_interval;
  if (sample_interval <= 0.0) {
    if (options.stats_interval > 0.0) {
      sample_interval = std::min(options.stats_interval, 3600.0);
    } else if (options.http_port >= 0) {
      sample_interval = 1.0;
    }
  }
  if (sample_interval > 0.0) {
    impl_->system_collector = std::make_unique<SystemStatsCollector>();
    TimeseriesOptions tsopts;
    tsopts.period_seconds = sample_interval;
    tsopts.retention = options.sample_retention;
    impl_->sampler = std::make_unique<TimeseriesSampler>(tsopts);
    Impl* im = impl_;
    // The same conversion the sampler applies to its own period, so with
    // only --stats-interval every tick is at least one period past the
    // previous dump and dumps.
    im->stats_period =
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(options.stats_interval));
    const bool dump_stats = options.stats_interval > 0.0;
    // The hook runs on the sampler thread, which is the sole gauge
    // publisher for system stats (system_stats.h's single-publisher rule).
    impl_->sampler->set_pre_sample_hook([im, dump_stats] {
      const SystemSample sample = im->system_collector->Sample();
      SystemStatsCollector::PublishGauges(sample);
      {
        MutexLock lock(im->system_mu);
        im->last_system = sample;
        im->have_system = true;
      }
      if (dump_stats) im->MaybeDumpStats();
    });
    impl_->sampler->Start();
  }

  if (options.http_port >= 0) {
    impl_->http = std::make_unique<MetricsHttpServer>();
    Impl* im = impl_;
    impl_->http->set_vars_producer([im] { return im->VarsJson(); });
    std::string herr;
    if (!impl_->http->Start(options.http_port, &herr)) {
      impl_->start_error = herr;
      impl_->http.reset();
    } else {
      impl_->http_port = impl_->http->port();
      std::cerr << "wmlp: telemetry endpoint on http://127.0.0.1:"
                << impl_->http_port << " (/metrics /vars /healthz)\n";
      if (!options.http_port_file.empty()) {
        std::ofstream pf(options.http_port_file,
                         std::ios::binary | std::ios::trunc);
        pf << impl_->http_port << "\n";
        pf.flush();
        if (!pf) {
          impl_->start_error =
              "cannot write http port file: " + options.http_port_file;
        }
      }
    }
  }
}

const std::string& TelemetrySession::start_error() const {
  return impl_->start_error;
}

int TelemetrySession::http_port() const { return impl_->http_port; }

bool TelemetrySession::Finish(std::string* err) {
  Impl& im = *impl_;
  if (im.finished) return true;
  im.finished = true;
  // HTTP first (so no scrape races the sampler teardown), then sampler.
  if (im.http != nullptr) {
    im.http->Stop();
    im.http.reset();
  }
  if (im.sampler != nullptr) im.sampler->Stop();
  if (im.armed_tracer) Tracer::Disarm();
  double uptime = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - im.start)
                      .count();
  bool ok = true;
  std::string first_err;
  if (!im.options.telemetry_out.empty()) {
    SamplerSnapshot ts;
    const SamplerSnapshot* ts_ptr = nullptr;
    if (im.sampler != nullptr) {
      ts = im.sampler->Snapshot();
      ts_ptr = &ts;
    }
    // A final system read for the snapshot file. Deliberately NOT
    // published as gauges: the sampler thread owns those, and it is gone.
    SystemSample sys;
    const SystemSample* sys_ptr = nullptr;
    if (im.system_collector != nullptr) {
      sys = im.system_collector->Sample();
      sys_ptr = &sys;
    }
    const std::string body = SnapshotToJson(Registry::Get().Collect(),
                                            uptime, ts_ptr, sys_ptr);
    std::ofstream out(im.options.telemetry_out,
                      std::ios::binary | std::ios::trunc);
    out << body;
    out.flush();
    if (!out) {
      ok = false;
      first_err =
          "write failed for telemetry snapshot file: " +
          im.options.telemetry_out;
    }
  }
  if (!im.options.trace_out.empty()) {
    std::string e;
    if (!WriteTraceJson(im.options.trace_out, &e) && ok) {
      ok = false;
      first_err = e;
    }
  }
  if (!ok && err) *err = first_err;
  return ok;
}

TelemetrySession::~TelemetrySession() {
  std::string err;
  if (!Finish(&err) && !err.empty()) {
    std::cerr << "warning: " << err << "\n";
  }
  delete impl_;
}

}  // namespace wmlp::telemetry
