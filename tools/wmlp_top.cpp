// Live terminal dashboard over the observability plane.
//
// Usage:
//   wmlp_top --connect 127.0.0.1:8080        poll a /vars endpoint
//   wmlp_top --snapshot-file s.json          tail a snapshot file instead
//   ... [--interval 1.0] [--iterations 0] [--plain] [--filter substr]
//
// Each poll fetches one wmlp-telemetry-snapshot-v1 document (live from
// the embedded HTTP endpoint's /vars route, or re-read from a file a
// session is rewriting) and renders: process/system stats, the cost-ratio
// watchdog gauges, the per-shard serve table, and the sampler's
// time-series tail (last value, rate/s, and window quantiles per series).
// --iterations N exits after N polls (0 = run until interrupted);
// --plain suppresses the ANSI clear-screen so output appends, which is
// what scripts and the smoke test want. --filter restricts the metric and
// time-series tables to names containing the substring. Any other flag, a
// repeated flag or a stray argument exits 2.
//
// The dashboard is a pure consumer: it never registers metrics, so
// pointing it at its own process would show nothing. Rendering tolerates
// missing sections (telemetry-OFF builds, sampler not enabled) and
// renders whatever is present.
#include <charconv>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "harness/table.h"
#include "telemetry/http_server.h"
#include "telemetry/snapshot_reader.h"
#include "tool_util.h"

namespace wmlp {
namespace {

using telemetry::MetricSnapshot;
using telemetry::MetricType;
using telemetry::SnapshotFile;

// One row of the per-shard table, assembled from the labeled
// wmlp_serve_shard_* metrics ({shard="N"} suffix, see server/metrics.cpp).
struct ShardRow {
  double requests = 0.0;
  double evictions = 0.0;
  double fetches = 0.0;
  double eviction_cost = 0.0;
};

// Splits `name{label}` into (base, label-content); label empty when the
// metric is unlabeled.
std::pair<std::string, std::string> SplitLabel(const std::string& name) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') return {name, ""};
  return {name.substr(0, brace),
          name.substr(brace + 1, name.size() - brace - 2)};
}

std::string FmtBytes(double bytes) {
  if (bytes >= 1024.0 * 1024.0 * 1024.0) {
    return Fmt(bytes / (1024.0 * 1024.0 * 1024.0), 2) + " GiB";
  }
  if (bytes >= 1024.0 * 1024.0) {
    return Fmt(bytes / (1024.0 * 1024.0), 1) + " MiB";
  }
  return Fmt(bytes / 1024.0, 1) + " KiB";
}

void RenderSystem(const SnapshotFile& snapshot) {
  if (!snapshot.has_system || !snapshot.system.valid) return;
  const telemetry::SystemSample& sys = snapshot.system;
  std::cout << "system:    rss " << FmtBytes(sys.rss_bytes) << "  cpu "
            << Fmt(sys.cpu_percent, 1) << "%  threads "
            << sys.threads << "  fds " << sys.open_fds;
  if (sys.hw.available) {
    const double ipc =
        sys.hw.cycles > 0
            ? static_cast<double>(sys.hw.instructions) /
                  static_cast<double>(sys.hw.cycles)
            : 0.0;
    std::cout << "  hw: ipc " << Fmt(ipc, 2) << " cache-miss "
              << FmtInt(static_cast<int64_t>(sys.hw.cache_misses));
  }
  std::cout << "\n";
}

void RenderWatchdog(const SnapshotFile& snapshot) {
  // label-content ("" for the unlabeled aggregate) -> field map.
  std::map<std::string, std::map<std::string, double>> rows;
  for (const MetricSnapshot& m : snapshot.metrics) {
    if (m.type != MetricType::kGauge) continue;
    const auto [base, label] = SplitLabel(m.name);
    if (base.rfind("wmlp_watchdog_", 0) != 0) continue;
    rows[label][base.substr(std::string("wmlp_watchdog_").size())] =
        m.gauge_value;
  }
  if (rows.empty()) return;
  std::cout << "watchdog: ";
  for (const auto& [label, fields] : rows) {
    const auto ratio = fields.find("cost_ratio_upper");
    const auto lb = fields.find("opt_lower_bound");
    std::cout << " [" << (label.empty() ? "all" : label) << "] ratio<=";
    if (ratio != fields.end() && lb != fields.end() && lb->second > 0.0) {
      std::cout << Fmt(ratio->second, 3) << " lb=" << Fmt(lb->second, 1);
    } else {
      std::cout << "n/a";
    }
  }
  std::cout << "\n";
}

void RenderShards(const SnapshotFile& snapshot) {
  std::map<std::string, ShardRow> shards;
  for (const MetricSnapshot& m : snapshot.metrics) {
    const auto [base, label] = SplitLabel(m.name);
    if (label.rfind("shard=", 0) != 0) continue;
    // label is shard="N"; strip down to N for display.
    std::string id = label.substr(std::string("shard=").size());
    if (id.size() >= 2 && id.front() == '"' && id.back() == '"') {
      id = id.substr(1, id.size() - 2);
    }
    ShardRow& row = shards[id];
    if (base == "wmlp_serve_shard_requests_total") {
      row.requests = m.counter_value;
    } else if (base == "wmlp_serve_shard_evictions_total") {
      row.evictions = m.counter_value;
    } else if (base == "wmlp_serve_shard_fetches_total") {
      row.fetches = m.counter_value;
    } else if (base == "wmlp_serve_shard_eviction_cost") {
      row.eviction_cost = m.gauge_value;
    }
  }
  if (shards.empty()) return;
  Table table({"shard", "requests", "evictions", "fetches",
               "eviction cost"});
  for (const auto& [id, row] : shards) {
    table.AddRow({id, FmtInt(static_cast<int64_t>(row.requests)),
                  FmtInt(static_cast<int64_t>(row.evictions)),
                  FmtInt(static_cast<int64_t>(row.fetches)),
                  Fmt(row.eviction_cost, 2)});
  }
  table.Print(std::cout);
}

void RenderTimeseries(const SnapshotFile& snapshot,
                      const std::string& filter, size_t max_rows) {
  if (!snapshot.has_timeseries) return;
  const telemetry::SamplerSnapshot& ts = snapshot.timeseries;
  std::cout << "timeseries: period " << Fmt(ts.period_seconds, 2)
            << " s, " << ts.ticks << " ticks, " << ts.series.size()
            << " series\n";
  Table table({"series", "last", "rate/s", "p50", "p99"});
  size_t shown = 0;
  size_t matched = 0;
  for (const telemetry::MetricSeries& series : ts.series) {
    if (!filter.empty() &&
        series.name.find(filter) == std::string::npos) {
      continue;
    }
    ++matched;
    if (shown >= max_rows) continue;
    ++shown;
    const std::string last =
        series.values.empty() ? "-" : Fmt(series.values.back(), 2);
    const std::string rate =
        series.rates.empty() ? "-" : Fmt(series.rates.back(), 2);
    table.AddRow({series.name, last, rate,
                  series.has_quantiles ? Fmt(series.p50, 2) : "-",
                  series.has_quantiles ? Fmt(series.p99, 2) : "-"});
  }
  table.Print(std::cout);
  if (matched > shown) {
    std::cout << "  (" << (matched - shown)
              << " more series; narrow with --filter)\n";
  }
}

void Render(const SnapshotFile& snapshot, const std::string& source,
            int64_t poll, const std::string& filter, bool plain) {
  if (!plain) std::cout << "\033[H\033[2J";
  std::cout << "wmlp_top — " << source << " — uptime "
            << Fmt(snapshot.uptime_seconds, 1) << " s — "
            << snapshot.metrics.size() << " metrics — poll #" << poll
            << (snapshot.telemetry_compiled ? ""
                                            : " — telemetry NOT compiled")
            << "\n";
  RenderSystem(snapshot);
  RenderWatchdog(snapshot);
  RenderShards(snapshot);
  RenderTimeseries(snapshot, filter, 24);
  std::cout.flush();
}

}  // namespace
}  // namespace wmlp

int main(int argc, char** argv) {
  using namespace wmlp;
  const tools::Flags flags(
      argc, argv,
      {.values = {"connect", "snapshot-file", "interval", "iterations",
                  "filter"},
       .switches = {"plain"}});

  const std::string snapshot_file = flags.GetString("snapshot-file");
  const std::string connect = flags.GetString("connect");
  if (snapshot_file.empty() == connect.empty()) {
    tools::Die("exactly one of --connect or --snapshot-file is required");
  }
  std::string host;
  int port = 0;
  if (!connect.empty()) {
    const size_t colon = connect.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == connect.size()) {
      tools::Die("--connect expects HOST:PORT, got '" + connect + "'");
    }
    host = connect.substr(0, colon);
    const std::string text = connect.substr(colon + 1);
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), port);
    if (ec != std::errc{} || end != text.data() + text.size() || port < 1 ||
        port > 65535) {
      tools::Die("--connect port must be in [1, 65535], got '" + text + "'");
    }
  }

  const double interval =
      flags.GetDoubleInRange("interval", 1.0, 0.05, 3600.0);
  const int64_t iterations =
      flags.GetIntInRange("iterations", 0, 0, int64_t{1} << 40);
  const bool plain = flags.Has("plain");
  const std::string filter = flags.GetString("filter");
  const std::string source =
      connect.empty() ? snapshot_file : "http://" + connect + "/vars";

  for (int64_t poll = 1; iterations == 0 || poll <= iterations; ++poll) {
    telemetry::SnapshotFile snapshot;
    std::string err;
    if (!connect.empty()) {
      int status = 0;
      std::string body;
      if (!telemetry::HttpGet(host, port, "/vars", &status, &body, &err)) {
        tools::Die("poll " + std::to_string(poll) + " failed: " + err);
      }
      if (status != 200) {
        tools::Die("/vars returned HTTP " + std::to_string(status));
      }
      if (!telemetry::ParseSnapshot(body, &snapshot, &err)) {
        tools::Die("bad /vars payload: " + err);
      }
    } else {
      if (!telemetry::ReadSnapshotFile(snapshot_file, &snapshot, &err)) {
        tools::Die(err);
      }
    }
    Render(snapshot, source, poll, filter, plain);
    if (iterations == 0 || poll < iterations) {
      std::this_thread::sleep_for(std::chrono::duration<double>(interval));
    }
  }
  return 0;
}
