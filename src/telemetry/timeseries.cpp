#include "telemetry/timeseries.h"

#include <chrono>
#include <cmath>
#include <deque>

#include "util/check.h"
#include "util/stats.h"

namespace wmlp::telemetry {

std::string ValidateTimeseriesOptions(const TimeseriesOptions& options) {
  if (!std::isfinite(options.period_seconds) ||
      options.period_seconds < 0.01 || options.period_seconds > 3600.0) {
    return "timeseries period must be in [0.01, 3600] seconds";
  }
  if (options.retention < 2 || options.retention > (int64_t{1} << 20)) {
    return "timeseries retention must be in [2, 1048576] points";
  }
  return "";
}

struct TimeseriesSampler::Ring {
  MetricType type = MetricType::kCounter;
  bool pow2 = true;
  std::vector<double> bounds;          // explicit histogram layouts
  std::deque<double> times;
  std::deque<double> values;           // counter / gauge value, hist count
  std::deque<std::vector<uint64_t>> buckets;  // histograms only
};

TimeseriesSampler::TimeseriesSampler(const TimeseriesOptions& options)
    : options_(options) {
  WMLP_CHECK_MSG(ValidateTimeseriesOptions(options).empty(),
                 "TimeseriesSampler given unvalidated options");
}

TimeseriesSampler::~TimeseriesSampler() { Stop(); }

void TimeseriesSampler::Start() {
  WMLP_CHECK_MSG(!started_, "TimeseriesSampler started twice");
  started_ = true;
  thread_ = std::thread([this] { Loop(); });
}

void TimeseriesSampler::Stop() {
  if (!thread_.joinable()) return;
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  thread_.join();
}

void TimeseriesSampler::Loop() {
  const auto start = std::chrono::steady_clock::now();
  const auto period =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(options_.period_seconds));
  while (true) {
    const auto deadline = std::chrono::steady_clock::now() + period;
    {
      MutexLock lock(mu_);
      while (!StopRequestedLocked() &&
             std::chrono::steady_clock::now() < deadline) {
        cv_.WaitUntil(lock, deadline);
      }
      if (StopRequestedLocked()) return;
    }
    const double uptime =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    SampleOnce(uptime);
  }
}

void TimeseriesSampler::SampleOnce(double now_seconds) {
  if (pre_sample_hook_) pre_sample_hook_();
  // Collect outside the ring lock: Collect() takes the registry mutex and
  // can be slow; the ring lock only guards the ring map.
  const std::vector<MetricSnapshot> metrics = Registry::Get().Collect();
  MutexLock lock(mu_);
  ++ticks_;
  for (const MetricSnapshot& m : metrics) {
    Ring& ring = rings_[m.name];
    if (ring.times.empty()) {
      ring.type = m.type;
      ring.pow2 = m.pow2;
      ring.bounds = m.bounds;
    }
    double value = 0.0;
    switch (m.type) {
      case MetricType::kCounter:
        value = static_cast<double>(m.counter_value);
        break;
      case MetricType::kGauge:
        value = m.gauge_value;
        break;
      case MetricType::kHistogram:
        value = static_cast<double>(m.hist_count);
        ring.buckets.push_back(m.bucket_counts);
        break;
    }
    ring.times.push_back(now_seconds);
    ring.values.push_back(value);
    while (static_cast<int64_t>(ring.times.size()) > options_.retention) {
      ring.times.pop_front();
      ring.values.pop_front();
      if (!ring.buckets.empty()) ring.buckets.pop_front();
    }
  }
}

SamplerSnapshot TimeseriesSampler::Snapshot() const {
  MutexLock lock(mu_);
  SamplerSnapshot snap;
  snap.period_seconds = options_.period_seconds;
  snap.retention = options_.retention;
  snap.ticks = ticks_;
  snap.series.reserve(rings_.size());
  for (const auto& [name, ring] : rings_) {
    MetricSeries s;
    s.name = name;
    s.type = ring.type;
    s.times.assign(ring.times.begin(), ring.times.end());
    s.values.assign(ring.values.begin(), ring.values.end());
    // Per-second rates for monotone series (counters and histogram
    // counts); gauges are level quantities, rates would be meaningless.
    if (ring.type != MetricType::kGauge && s.times.size() >= 2) {
      s.rates.reserve(s.times.size() - 1);
      for (std::size_t i = 1; i < s.times.size(); ++i) {
        const double dt = s.times[i] - s.times[i - 1];
        const double dv = s.values[i] - s.values[i - 1];
        s.rates.push_back(dt > 0.0 ? dv / dt : 0.0);
      }
    }
    if (ring.type == MetricType::kHistogram && ring.buckets.size() >= 2) {
      const std::vector<uint64_t>& oldest = ring.buckets.front();
      const std::vector<uint64_t>& newest = ring.buckets.back();
      std::vector<uint64_t> delta(newest.size(), 0);
      for (std::size_t b = 0; b < newest.size(); ++b) {
        const uint64_t old_b = b < oldest.size() ? oldest[b] : 0;
        delta[b] = newest[b] >= old_b ? newest[b] - old_b : 0;
      }
      uint64_t window = 0;
      for (uint64_t d : delta) window += d;
      s.has_quantiles = true;
      s.window_count = static_cast<int64_t>(window);
      s.p50 = BucketQuantile(delta, ring.bounds, ring.pow2, 0.5);
      s.p99 = BucketQuantile(delta, ring.bounds, ring.pow2, 0.99);
      s.p999 = BucketQuantile(delta, ring.bounds, ring.pow2, 0.999);
    }
    snap.series.push_back(std::move(s));
  }
  return snap;
}

}  // namespace wmlp::telemetry
