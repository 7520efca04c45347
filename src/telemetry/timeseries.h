// Time-series sampler: periodic registry snapshots into fixed-capacity
// per-metric ring buffers.
//
// A background thread (or a test calling SampleOnce directly) snapshots
// Registry::Collect() every `period_seconds` and appends one point per
// metric to that metric's ring:
//
//   * counters keep (t, value) and derive a per-second rate between
//     consecutive ticks at export time;
//   * gauges keep (t, value);
//   * histograms additionally keep the full bucket-count array per tick, so
//     sliding-window p50/p99/p999 come from newest-minus-oldest bucket
//     deltas (the distribution of ONLY the samples observed inside the
//     retained window, not since process start).
//
// Rings hold `retention` points; older points fall off. Memory is bounded:
// O(metrics * retention) values plus O(histograms * retention * buckets).
// The sampler owns no metrics — it is a pure reader of the registry, so it
// cannot perturb serve results (the determinism battery in
// tests/telemetry_test.cpp holds with the sampler on).
//
// Snapshot() returns a copyable view used by the JSON exporter
// (export.h, "timeseries" section) and by tests.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/telemetry.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace wmlp::telemetry {

struct TimeseriesOptions {
  double period_seconds = 1.0;  // sampling period; [0.01, 3600]
  int64_t retention = 600;      // points kept per metric; [2, 1 << 20]
};

// "" when usable, else a human-readable error (same contract as
// ValidateTelemetryRunOptions).
std::string ValidateTimeseriesOptions(const TimeseriesOptions& options);

// One metric's retained points, oldest first.
struct MetricSeries {
  std::string name;
  MetricType type = MetricType::kCounter;
  std::vector<double> times;    // uptime seconds at each tick
  std::vector<double> values;   // counter value / gauge value / hist count
  // Counters + histogram counts: per-second rate between consecutive
  // ticks; rates[i] pairs with times[i + 1] (empty until 2 points exist).
  std::vector<double> rates;
  // Histograms only: quantiles of the samples observed within the retained
  // window (newest-minus-oldest bucket deltas); NaN-free — 0 when the
  // window holds no samples.
  bool has_quantiles = false;
  int64_t window_count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

struct SamplerSnapshot {
  double period_seconds = 0.0;
  int64_t retention = 0;
  int64_t ticks = 0;  // total SampleOnce calls (may exceed retention)
  std::vector<MetricSeries> series;  // sorted by name
};

class TimeseriesSampler {
 public:
  // `options` must already be validated (programmer error to pass bad ones).
  explicit TimeseriesSampler(const TimeseriesOptions& options);
  ~TimeseriesSampler();
  TimeseriesSampler(const TimeseriesSampler&) = delete;
  TimeseriesSampler& operator=(const TimeseriesSampler&) = delete;

  // Starts / stops the background sampling thread. Start is not
  // re-entrant; Stop is idempotent and joins the thread.
  void Start();
  void Stop();

  // Takes one sample at the given uptime. Public so tests drive the
  // sampler deterministically without sleeping; the background thread
  // calls it with measured uptime. Thread-safe.
  void SampleOnce(double now_seconds);

  // Runs at the start of every SampleOnce, before the registry is read.
  // Set before Start (not synchronized against a running thread).
  // TelemetrySession uses it to refresh the system/process gauges so they
  // get ring-buffered like every other metric, and to print the
  // --stats-interval dump.
  void set_pre_sample_hook(std::function<void()> hook) {
    pre_sample_hook_ = std::move(hook);
  }

  SamplerSnapshot Snapshot() const;

 private:
  struct Ring;  // per-metric ring storage

  void Loop();
  bool StopRequestedLocked() const REQUIRES(mu_) { return stop_; }

  const TimeseriesOptions options_;
  std::function<void()> pre_sample_hook_;
  std::thread thread_;
  bool started_ = false;

  mutable Mutex mu_;
  CondVar cv_;
  bool stop_ GUARDED_BY(mu_) = false;
  int64_t ticks_ GUARDED_BY(mu_) = 0;
  std::map<std::string, Ring> rings_ GUARDED_BY(mu_);
};

}  // namespace wmlp::telemetry
