// Per-shard observer bundles and their cross-shard aggregation.
//
// Each shard engine gets its own CostMeter (and, when enabled, its own
// LatencyHistogram — cycle counters must stay thread-local); after the
// shard workers join, ShardedMetrics folds the per-shard meters into one
// SimResult and one merged histogram. The per-shard meters double as an
// independent witness of the engines' own accounting: the server
// cross-checks meter totals against every Engine::result() and aborts on
// any disagreement.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/cost_watchdog.h"
#include "engine/step_observers.h"
#include "sim/simulator.h"

namespace wmlp {

class ShardedMetrics {
 public:
  // One observer bundle per shard; histograms are allocated only when
  // `collect_latency` (they are pointer-per-shard so shard workers never
  // share a cache line through this object's hot fields).
  ShardedMetrics(int32_t num_shards, bool collect_latency);

  // The observer to attach to shard `s`'s engine. Stable address for the
  // lifetime of this object; safe to use from the shard's worker thread
  // (no cross-shard state is touched on the notification path).
  StepObserver* observer(int32_t s);

  // Adds a cost-ratio watchdog to shard `s`'s observer bundle. Must run
  // before the shard worker starts (the bundle is not synchronized);
  // `shard_instance` must outlive this object. Each shard's watchdog
  // bounds that shard against its own shard-local optimum — the right
  // yardstick for the sharded server, where pages never migrate.
  void AttachWatchdog(int32_t s, const Instance& shard_instance,
                      const WatchdogOptions& options);

  // Null when no watchdog was attached to `s`.
  const CostRatioWatchdog* watchdog(int32_t s) const {
    return watchdogs_.empty() ? nullptr
                              : watchdogs_[static_cast<size_t>(s)].get();
  }

  // Final Publish() on every attached watchdog so /healthz and the gauges
  // see end-of-run totals. Call after the shard workers have joined.
  void PublishWatchdogs();

  const CostMeter& meter(int32_t s) const {
    return *meters_[static_cast<size_t>(s)];
  }
  // Null when latency collection is off.
  const LatencyHistogram* latency(int32_t s) const {
    return latency_.empty() ? nullptr : latency_[static_cast<size_t>(s)].get();
  }

  // Aggregation; call after every shard worker has joined.
  SimResult Totals() const;
  LatencyHistogram MergedLatency() const;

  // Publishes per-shard counters into the telemetry registry in fixed
  // shard order (shard 0 first — the same order Totals() folds in), plus
  // serve-level totals. Runs on the calling (coordinator) thread after the
  // joins, so it never races the workers.
  void PublishTelemetry() const;

  int32_t num_shards() const {
    return static_cast<int32_t>(meters_.size());
  }

 private:
  std::vector<std::unique_ptr<CostMeter>> meters_;
  std::vector<std::unique_ptr<LatencyHistogram>> latency_;
  std::vector<std::unique_ptr<CostRatioWatchdog>> watchdogs_;
  std::vector<std::unique_ptr<MultiObserver>> multi_;
};

}  // namespace wmlp
