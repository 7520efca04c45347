#include "server/metrics.h"

#include <deque>
#include <mutex>
#include <string>

#include "server/sharding.h"
#include "telemetry/telemetry.h"
#include "util/check.h"

namespace wmlp {

namespace {

// One shard index's labelled handles, {shard="s"}.
struct ShardHandles {
  telemetry::Counter& requests;
  telemetry::Counter& evictions;
  telemetry::Counter& fetches;
  telemetry::Gauge& eviction_cost;
};

// The per-shard handles, each shard index's resolved once per process:
// its four names are built and looked up under the registry mutex the
// first time a run has that many shards. The shard count is capped
// (kMaxShards), so the table stays bounded.
class ShardHandleTable {
 public:
  static ShardHandleTable& Get() {
    static ShardHandleTable table;
    return table;
  }

  // Shard s's handles. A deque keeps each entry in place while later
  // calls append, so the reference stays valid after the lock is released.
  const ShardHandles& For(size_t s) {
    WMLP_CHECK(s < static_cast<size_t>(kMaxShards));
    const std::lock_guard<std::mutex> lock(mu_);
    telemetry::Registry& registry = telemetry::Registry::Get();
    while (handles_.size() <= s) {
      const std::string label =
          "{shard=\"" + std::to_string(handles_.size()) + "\"}";
      handles_.push_back(ShardHandles{
          registry.GetCounter("wmlp_serve_shard_requests_total" + label),
          registry.GetCounter("wmlp_serve_shard_evictions_total" + label),
          registry.GetCounter("wmlp_serve_shard_fetches_total" + label),
          registry.GetGauge("wmlp_serve_shard_eviction_cost" + label)});
    }
    return handles_[s];
  }

 private:
  std::mutex mu_;
  std::deque<ShardHandles> handles_;  // guarded by mu_
};

}  // namespace

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
  ShardHandleTable& table = ShardHandleTable::Get();
  for (size_t s = 0; s < meters_.size(); ++s) {
    const CostMeter& meter = *meters_[s];
    const ShardHandles& handles = table.For(s);
    handles.requests.Add(static_cast<uint64_t>(meter.steps()));
    handles.evictions.Add(static_cast<uint64_t>(meter.evictions()));
    handles.fetches.Add(static_cast<uint64_t>(meter.fetches()));
    handles.eviction_cost.Set(meter.eviction_cost());
  }
  static telemetry::Counter& requests =
      telemetry::Registry::Get().GetCounter("wmlp_serve_requests_total");
  static telemetry::Counter& evictions =
      telemetry::Registry::Get().GetCounter("wmlp_serve_evictions_total");
  static telemetry::Counter& runs =
      telemetry::Registry::Get().GetCounter("wmlp_serve_runs_total");
  const SimResult totals = Totals();
  requests.Add(static_cast<uint64_t>(totals.hits + totals.misses));
  evictions.Add(static_cast<uint64_t>(totals.evictions));
  runs.Inc();
}

}  // namespace wmlp
