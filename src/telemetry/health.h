// Process-wide health registry for the cost-ratio watchdog.
//
// The watchdog observers (engine/cost_watchdog.h) run one per shard and
// each maintains a running upper bound on the competitive ratio of the
// policy it watches. /healthz (telemetry/http_server.h) needs a single
// process-level verdict, so each watchdog registers a slot here and pushes
// its running totals; Snapshot() folds the slots into one summed ratio and
// a healthy/unhealthy bit against a configurable threshold.
//
// This lives in namespace wmlp::health (not wmlp::telemetry) on purpose:
// the watchdog is core serving-path machinery, and the health verdict
// feeds /healthz, not the metric registry. Slots are coarse (one Update
// per publish interval, default every 1024 requests), so a plain mutex is
// fine.
#pragma once

#include <cstdint>
#include <vector>

#include "util/sync.h"
#include "util/thread_annotations.h"

namespace wmlp::health {

// Folded view of all watchdog slots.
struct HealthSnapshot {
  double alg_cost = 0.0;         // summed realized eviction cost
  double lower_bound = 0.0;      // summed OPT lower bounds
  double ratio_upper = 0.0;      // alg_cost / lower_bound (0 until LB > 0)
  double threshold = 0.0;        // 0 = monitor-only (always healthy)
  int64_t crossings = 0;         // times the ratio crossed the threshold
  int64_t sources = 0;           // registered watchdog slots
  bool healthy = true;
};

class CostRatioHealth {
 public:
  // The process-wide instance. Never destroyed (leaky singleton, same
  // discipline as telemetry::Registry).
  static CostRatioHealth& Get();

  // Registers a watchdog slot; the returned id is stable forever.
  int RegisterSource();

  // Replaces slot `slot`'s running totals. Counts a threshold crossing
  // when the summed ratio moves from below to at-or-above the threshold.
  void Update(int slot, double alg_cost, double lower_bound);

  // 0 disables the threshold (monitor-only: always healthy).
  void SetThreshold(double threshold);

  HealthSnapshot Snapshot() const;

  // Drops all slots and state. For tests only.
  void ResetForTest();

 private:
  CostRatioHealth() = default;

  struct Slot {
    double alg = 0.0;
    double lb = 0.0;
  };

  HealthSnapshot SnapshotLocked() const REQUIRES(mu_);

  mutable Mutex mu_;
  std::vector<Slot> slots_ GUARDED_BY(mu_);
  double threshold_ GUARDED_BY(mu_) = 0.0;
  int64_t crossings_ GUARDED_BY(mu_) = 0;
  bool above_ GUARDED_BY(mu_) = false;
};

}  // namespace wmlp::health
