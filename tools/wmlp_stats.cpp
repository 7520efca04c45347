// Offline reporter and checker over telemetry files.
//
// Usage:
//   wmlp_stats --snapshot s.json                 summarize one snapshot
//   wmlp_stats --snapshot s.json --prometheus    re-emit Prometheus text
//   wmlp_stats --snapshot b.json --base a.json   diff: b minus a
//   ... [--filter substr]                        restrict to matching names
//                                                (no match => exit nonzero)
//   wmlp_stats --check [--snapshot s.json] [--trace t.json]
//       [--require-compiled] [--require-nonzero NAME...]
//       [--require-timeseries] [--min-ticks N] [--require-system]
//       [--base earlier.json]                    validate + assert
//
// Every file is read through telemetry/snapshot_reader.h, the one
// validator of the snapshot and trace formats, so a malformed file fails
// every mode. --check then makes the assertions CI needs about a run:
//   --require-compiled    telemetry_compiled is true;
//   --require-nonzero     each named metric (exact name, labels included)
//                         exists with a nonzero counter value, histogram
//                         count or gauge |value|;
//   --require-timeseries  the timeseries section is present, and
//   --min-ticks N         holds at least N sampler ticks;
//   --require-system      the system section is present and valid;
//   --base PREV           PREV is an earlier snapshot of the same process:
//                         no metric vanished or changed type or layout, no
//                         counter, histogram count or bucket went
//                         backwards, and the uptime did not shrink.
// It prints every failed assertion and exits 1 if there was one. Any
// other flag, a repeated flag or a stray argument exits 2 in every mode.
//
// The summary prints one row per metric: counters as their value, gauges
// as-is, histograms as count/mean/p50/p99 from the stored buckets
// (BucketQuantile in util/stats.h, the rule the sampler and
// LatencyHistogram use). Diff mode subtracts the base snapshot
// metric-by-metric — counters and histogram buckets as unsigned deltas (a
// counter that went backwards is an error, since counters are monotone
// within a process), gauges as signed deltas — and summarizes the
// difference, which turns two snapshots taken around a phase into that
// phase's own report.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "harness/table.h"
#include "telemetry/export.h"
#include "telemetry/snapshot_reader.h"
#include "tool_util.h"
#include "util/stats.h"

namespace wmlp {
namespace {

using telemetry::MetricSnapshot;
using telemetry::MetricType;
using telemetry::SnapshotFile;

const char* TypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "?";
}

const MetricSnapshot* FindMetric(const std::vector<MetricSnapshot>& metrics,
                                 const std::string& name) {
  for (const MetricSnapshot& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

// Returns how many metrics matched the filter (all of them when the
// filter is empty) so the caller can fail on a filter that hit nothing.
size_t Summarize(const std::vector<MetricSnapshot>& metrics,
                 const std::string& filter) {
  Table table({"metric", "type", "value", "p50", "p99"});
  size_t matched = 0;
  for (const MetricSnapshot& m : metrics) {
    if (!filter.empty() && m.name.find(filter) == std::string::npos) {
      continue;
    }
    ++matched;
    switch (m.type) {
      case MetricType::kCounter:
        table.AddRow({m.name, TypeName(m.type),
                      FmtInt(static_cast<int64_t>(m.counter_value)), "-",
                      "-"});
        break;
      case MetricType::kGauge:
        table.AddRow(
            {m.name, TypeName(m.type), Fmt(m.gauge_value, 3), "-", "-"});
        break;
      case MetricType::kHistogram: {
        const double mean =
            m.hist_count == 0
                ? 0.0
                : m.hist_sum / static_cast<double>(m.hist_count);
        table.AddRow({m.name, TypeName(m.type),
                      "n=" + FmtInt(static_cast<int64_t>(m.hist_count)) +
                          " mean=" + Fmt(mean, 2),
                      Fmt(BucketQuantile(m.bucket_counts, m.bounds,
                                         m.pow2, 0.5),
                          2),
                      Fmt(BucketQuantile(m.bucket_counts, m.bounds,
                                         m.pow2, 0.99),
                          2)});
        break;
      }
    }
  }
  table.Print(std::cout);
  return matched;
}

// Why `b` cannot be a later reading of `a` in the same process, or "" when
// it can: a type or layout change, or a counter, histogram count or bucket
// that went backwards.
std::string Regression(const MetricSnapshot& a, const MetricSnapshot& b) {
  if (a.type != b.type) {
    return "metric '" + b.name + "' changed type between snapshots";
  }
  switch (b.type) {
    case MetricType::kCounter:
      if (a.counter_value > b.counter_value) {
        return "counter '" + b.name + "' went backwards between snapshots";
      }
      break;
    case MetricType::kGauge:
      break;
    case MetricType::kHistogram:
      if (a.pow2 != b.pow2 || a.bounds != b.bounds ||
          a.bucket_counts.size() != b.bucket_counts.size()) {
        return "histogram '" + b.name + "' changed layout between snapshots";
      }
      if (a.hist_count > b.hist_count) {
        return "histogram '" + b.name +
               "' count went backwards between snapshots";
      }
      for (size_t i = 0; i < b.bucket_counts.size(); ++i) {
        if (a.bucket_counts[i] > b.bucket_counts[i]) {
          return "histogram '" + b.name +
                 "' bucket went backwards between snapshots";
        }
      }
      break;
  }
  return "";
}

// b minus a. Metrics only in `b` pass through unchanged; metrics only in
// `a` are dropped (they recorded nothing during the window).
std::vector<MetricSnapshot> Diff(const std::vector<MetricSnapshot>& base,
                                 const std::vector<MetricSnapshot>& now) {
  std::vector<MetricSnapshot> out;
  for (const MetricSnapshot& b : now) {
    MetricSnapshot d = b;
    if (const MetricSnapshot* a = FindMetric(base, b.name); a != nullptr) {
      if (const std::string why = Regression(*a, b); !why.empty()) {
        tools::Die(why);
      }
      // Same type and layout; the other types' fields are zero in both.
      d.counter_value -= a->counter_value;
      d.gauge_value -= a->gauge_value;
      d.hist_count -= a->hist_count;
      d.hist_sum -= a->hist_sum;
      for (size_t i = 0; i < d.bucket_counts.size(); ++i) {
        d.bucket_counts[i] -= a->bucket_counts[i];
      }
    }
    out.push_back(std::move(d));
  }
  return out;
}

SnapshotFile ReadSnapshotOrDie(const std::string& path) {
  SnapshotFile snapshot;
  std::string err;
  if (!telemetry::ReadSnapshotFile(path, &snapshot, &err)) {
    tools::Die(path + ": " + err);
  }
  return snapshot;
}

bool Nonzero(const MetricSnapshot& m) {
  switch (m.type) {
    case MetricType::kCounter: return m.counter_value > 0;
    case MetricType::kGauge: return std::fabs(m.gauge_value) > 0.0;
    case MetricType::kHistogram: return m.hist_count > 0;
  }
  return false;
}

// The --check assertions about one snapshot; returns the failed ones.
std::vector<std::string> SnapshotFailures(const tools::Flags& flags,
                                          const SnapshotFile& s) {
  std::vector<std::string> failures;
  if (flags.Has("require-compiled") && !s.telemetry_compiled) {
    failures.push_back(
        "telemetry_compiled is false (was the binary built with "
        "-DWMLP_TELEMETRY=ON?)");
  }
  for (const std::string& name : flags.GetList("require-nonzero")) {
    const MetricSnapshot* m = FindMetric(s.metrics, name);
    if (m == nullptr) {
      failures.push_back("required metric '" + name + "' is absent");
    } else if (!Nonzero(*m)) {
      failures.push_back("required metric '" + name + "' is zero");
    }
  }
  const int64_t min_ticks = flags.GetIntInRange(
      "min-ticks", 0, 0, std::numeric_limits<int64_t>::max());
  if (!s.has_timeseries) {
    if (flags.Has("require-timeseries") || min_ticks > 0) {
      failures.push_back(
          "timeseries section absent (was the sampler enabled?)");
    }
  } else if (s.timeseries.ticks < min_ticks) {
    failures.push_back("sampler recorded " +
                       std::to_string(s.timeseries.ticks) +
                       " ticks, --min-ticks wants " +
                       std::to_string(min_ticks));
  }
  if (flags.Has("require-system") && !(s.has_system && s.system.valid)) {
    failures.push_back("system section absent or not valid");
  }
  const std::string base_path = flags.GetString("base");
  if (!base_path.empty()) {
    const SnapshotFile base = ReadSnapshotOrDie(base_path);
    if (s.uptime_seconds < base.uptime_seconds) {
      failures.push_back("uptime_seconds decreased since " + base_path);
    }
    for (const MetricSnapshot& a : base.metrics) {
      const MetricSnapshot* b = FindMetric(s.metrics, a.name);
      if (b == nullptr) {
        failures.push_back("metric '" + a.name + "' vanished since " +
                           base_path);
      } else if (std::string why = Regression(a, *b); !why.empty()) {
        failures.push_back(std::move(why));
      }
    }
  }
  return failures;
}

int RunCheck(const tools::Flags& flags) {
  const std::string snapshot_path = flags.GetString("snapshot");
  const std::string trace_path = flags.GetString("trace");
  if (snapshot_path.empty() && trace_path.empty()) {
    tools::Die("--check needs --snapshot and/or --trace");
  }
  std::vector<std::string> failures;
  std::string checked;
  if (!snapshot_path.empty()) {
    const SnapshotFile snapshot = ReadSnapshotOrDie(snapshot_path);
    failures = SnapshotFailures(flags, snapshot);
    checked = snapshot_path + ": " + std::to_string(snapshot.metrics.size()) +
              " metrics";
  } else {
    for (const char* flag :
         {"require-compiled", "require-nonzero", "require-timeseries",
          "min-ticks", "require-system", "base"}) {
      if (flags.Has(flag)) tools::Die(std::string("--") + flag +
                                      " needs --snapshot");
    }
  }
  if (!trace_path.empty()) {
    std::size_t events = 0;
    std::string err;
    if (!telemetry::ReadTraceFile(trace_path, &events, &err)) {
      tools::Die(trace_path + ": " + err);
    }
    checked += (checked.empty() ? "" : "; ") + trace_path + ": " +
               std::to_string(events) + " events";
  }
  if (!failures.empty()) {
    std::cerr << "telemetry check failed:\n";
    for (const std::string& f : failures) std::cerr << "  - " << f << "\n";
    return 1;
  }
  std::cout << "telemetry check passed (" << checked << ")\n";
  return 0;
}

}  // namespace
}  // namespace wmlp

int main(int argc, char** argv) {
  using namespace wmlp;
  const tools::Flags flags(
      argc, argv,
      {.values = {"snapshot", "trace", "base", "filter", "min-ticks"},
       .switches = {"check", "prometheus", "require-compiled",
                    "require-timeseries", "require-system"},
       .lists = {"require-nonzero"}});
  if (flags.Has("check")) return RunCheck(flags);
  const std::string snapshot_path = flags.GetString("snapshot");
  if (snapshot_path.empty()) tools::Die("--snapshot is required");
  const SnapshotFile snapshot = ReadSnapshotOrDie(snapshot_path);

  std::vector<telemetry::MetricSnapshot> metrics = snapshot.metrics;
  const std::string base_path = flags.GetString("base");
  if (!base_path.empty()) {
    metrics = Diff(ReadSnapshotOrDie(base_path).metrics, metrics);
  }

  if (flags.Has("prometheus")) {
    telemetry::WritePrometheusText(std::cout, metrics);
    return 0;
  }

  std::cout << "snapshot " << snapshot_path << " (schema " << snapshot.schema
            << ", telemetry "
            << (snapshot.telemetry_compiled ? "compiled" : "not compiled")
            << ", uptime " << Fmt(snapshot.uptime_seconds, 3) << " s";
  if (!base_path.empty()) std::cout << ", diffed against " << base_path;
  std::cout << ", " << metrics.size() << " metrics)\n";
  const std::string filter = flags.GetString("filter");
  const size_t matched = Summarize(metrics, filter);
  // A filter that selects nothing is an error, not an empty table: CI
  // greps depend on "--filter wmlp_serve produced rows" meaning the
  // metrics actually exist in the snapshot.
  if (!filter.empty() && matched == 0) {
    tools::Die("no metrics matched --filter '" + filter + "'");
  }
  return 0;
}
