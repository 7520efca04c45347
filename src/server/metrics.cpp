#include "server/metrics.h"

#include <string>

#include "telemetry/telemetry.h"
#include "util/check.h"

namespace wmlp {

ShardedMetrics::ShardedMetrics(int32_t num_shards, bool collect_latency) {
  WMLP_CHECK(num_shards >= 1);
  meters_.reserve(static_cast<size_t>(num_shards));
  multi_.reserve(static_cast<size_t>(num_shards));
  if (collect_latency) latency_.reserve(static_cast<size_t>(num_shards));
  for (int32_t s = 0; s < num_shards; ++s) {
    meters_.push_back(std::make_unique<CostMeter>());
    auto multi = std::make_unique<MultiObserver>();
    multi->Add(meters_.back().get());
    if (collect_latency) {
      latency_.push_back(std::make_unique<LatencyHistogram>());
      multi->Add(latency_.back().get());
    }
    multi_.push_back(std::move(multi));
  }
}

StepObserver* ShardedMetrics::observer(int32_t s) {
  return multi_[static_cast<size_t>(s)].get();
}

void ShardedMetrics::AttachWatchdog(int32_t s, const Instance& shard_instance,
                                    const WatchdogOptions& options) {
  if (watchdogs_.empty()) watchdogs_.resize(meters_.size());
  const auto idx = static_cast<size_t>(s);
  WMLP_CHECK(idx < watchdogs_.size() && watchdogs_[idx] == nullptr);
  watchdogs_[idx] =
      std::make_unique<CostRatioWatchdog>(shard_instance, options);
  multi_[idx]->Add(watchdogs_[idx].get());
}

void ShardedMetrics::PublishWatchdogs() {
  for (const auto& watchdog : watchdogs_) {
    if (watchdog != nullptr) watchdog->Publish();
  }
}

SimResult ShardedMetrics::Totals() const {
  SimResult totals;
  for (const auto& meter : meters_) {
    totals.eviction_cost += meter->eviction_cost();
    totals.fetch_cost += meter->fetch_cost();
    totals.hits += meter->hits();
    totals.misses += meter->misses();
    totals.evictions += meter->evictions();
    totals.fetches += meter->fetches();
  }
  return totals;
}

LatencyHistogram ShardedMetrics::MergedLatency() const {
  LatencyHistogram merged;
  for (const auto& histogram : latency_) merged.Merge(*histogram);
  return merged;
}

void ShardedMetrics::PublishTelemetry() const {
  telemetry::Registry& registry = telemetry::Registry::Get();
  // Per-shard registration is a cold path (once per serve run) and the
  // shard count is capped (kMaxShards), so dynamic names stay bounded.
  for (size_t s = 0; s < meters_.size(); ++s) {
    const CostMeter& meter = *meters_[s];
    const std::string label = "{shard=\"" + std::to_string(s) + "\"}";
    registry.GetCounter("wmlp_serve_shard_requests_total" + label)
        .Add(static_cast<uint64_t>(meter.steps()));
    registry.GetCounter("wmlp_serve_shard_evictions_total" + label)
        .Add(static_cast<uint64_t>(meter.evictions()));
    registry.GetCounter("wmlp_serve_shard_fetches_total" + label)
        .Add(static_cast<uint64_t>(meter.fetches()));
    registry.GetGauge("wmlp_serve_shard_eviction_cost" + label)
        .Set(meter.eviction_cost());
  }
  SimResult totals = Totals();
  registry.GetCounter("wmlp_serve_requests_total")
      .Add(static_cast<uint64_t>(totals.hits + totals.misses));
  registry.GetCounter("wmlp_serve_evictions_total")
      .Add(static_cast<uint64_t>(totals.evictions));
  registry.GetCounter("wmlp_serve_runs_total").Inc();
}

}  // namespace wmlp
