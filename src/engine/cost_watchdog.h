// Online cost-ratio watchdog: a StepObserver that tracks the realized
// eviction cost against a cheap running lower bound on the optimal cost,
// and exports the quotient as a live `cost_ratio_upper` signal.
//
// The bound (loose-competitiveness-style forced-fetch accounting, after
// Young's k-server dual): a request (p, i) can be served only by a cached
// copy (p, j) with j <= i, and weights are non-increasing in the level, so
// any copy that ever serves p costs at least
//
//     v(p) = w(p, max requested level of p)
//
// to evict. EVERY algorithm — the offline optimum included — must fetch at
// least one copy of each distinct requested page, and by the end of the
// trace at most k copies remain cached (evicting the rest was charged), so
//
//     OPT >= sum_p v(p) - (k largest v values)
//         >= sum_p v(p) - k * max_p v(p)     (the O(1)-update relaxation
//                                             this watchdog maintains)
//
// v(p) only decreases as higher levels of p get requested, and the sum /
// max update in O(1) per request, so the whole observer is a few flops on
// the serve path. The quotient alg_eviction_cost / LB is then a true upper
// bound on the ratio against OPT whenever LB > 0.
//
// The bound is deliberately coarse (it ignores re-fetches after capacity
// evictions), so the ratio is an upper bound, never an estimate: a
// threshold crossing means the realized cost provably exceeded
// `threshold` x OPT. Per-shard watchdogs bound each shard against its own
// shard-local OPT — the right yardstick for the sharded server, where
// pages never migrate between shards.
//
// Publishing: every kPublishEvery requests (and on demand via Publish())
// the watchdog pushes its totals into the process-wide health registry
// (telemetry/health.h — feeds /healthz) and into `wmlp_watchdog_*` gauges.
//
// Determinism: the watchdog only reads the request stream — it never
// touches policy or cache state, so serve results are byte-identical with
// it attached (tests/telemetry_test.cpp battery).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/step_observer.h"
#include "telemetry/telemetry.h"
#include "trace/instance.h"

namespace wmlp {

struct WatchdogOptions {
  // Ratio above which the health signal trips. 0 = monitor-only: the
  // gauges still export, /healthz always reports healthy.
  double threshold = 0.0;
  // Distinguishes gauge names when several watchdogs run (one per shard):
  // "" publishes wmlp_watchdog_cost_ratio_upper, "shard0" publishes
  // wmlp_watchdog_cost_ratio_upper{shard="shard0"}, etc.
  std::string label;
};

class CostRatioWatchdog final : public StepObserver {
 public:
  // `instance` must outlive the watchdog. Page ids observed are expected
  // to be valid for it (the engine validates before observers run).
  CostRatioWatchdog(const Instance& instance, const WatchdogOptions& options);

  void OnEvict(Time t, PageId p, Level level, Cost w) override;
  void OnStep(Time t, const Request& r, bool hit) override;
  void OnBatch(Time t0, std::span<const Request> reqs,
               std::span<const uint8_t> hits) override;

  // Requests between health/gauge publishes. Publishing takes a mutex, so
  // this stays comfortably above the batch size.
  static constexpr int64_t kPublishEvery = 1024;

  // Pushes current totals into the health registry + gauges. Called
  // automatically every kPublishEvery requests; call once more after the
  // run so the final totals are visible.
  void Publish();

  // The running lower bound max(0, sum_p v(p) - k * max_p v(p)).
  double lower_bound() const;
  double alg_cost() const { return alg_cost_; }
  int64_t requests_seen() const { return requests_seen_; }
  // alg_cost / lower_bound; 0 until the bound becomes positive.
  double ratio_upper() const;

 private:
  void Observe(const Request& r);

  const Instance& instance_;
  const int health_slot_;

  // v(p) = w(p, deepest requested level); 0 until p is first requested.
  std::vector<Cost> value_;
  std::vector<Level> max_level_;   // deepest requested level per page
  double sum_values_ = 0.0;
  double max_value_ = 0.0;
  double alg_cost_ = 0.0;
  int64_t requests_seen_ = 0;
  int64_t next_publish_ = 0;

  // The labelled wmlp_watchdog_* gauges, resolved once at construction.
  telemetry::Gauge alg_cost_gauge_;
  telemetry::Gauge lower_bound_gauge_;
  telemetry::Gauge ratio_gauge_;
  telemetry::Gauge requests_gauge_;
};

}  // namespace wmlp
