#include "engine/cost_watchdog.h"

#include "telemetry/health.h"
#include "telemetry/telemetry.h"

namespace wmlp {

CostRatioWatchdog::CostRatioWatchdog(const Instance& instance,
                                     const WatchdogOptions& options)
    : instance_(instance),
      options_(options),
      health_slot_(health::CostRatioHealth::Get().RegisterSource()),
      value_(static_cast<size_t>(instance.num_pages()), 0.0),
      max_level_(static_cast<size_t>(instance.num_pages()), 0),
      next_publish_(kPublishEvery) {
  if (options.threshold > 0.0) {
    health::CostRatioHealth::Get().SetThreshold(options.threshold);
  }
}

void CostRatioWatchdog::OnEvict(Time, PageId, Level, Cost w) {
  alg_cost_ += w;
}

void CostRatioWatchdog::Observe(const Request& r) {
  ++requests_seen_;
  const size_t p = static_cast<size_t>(r.page);
  if (r.level > max_level_[p]) {
    // Deeper level requested: v(p) drops to the (smaller) weight of the
    // deepest copy that can serve everything p was asked at.
    max_level_[p] = r.level;
    const Cost v = instance_.weight(r.page, r.level);
    sum_values_ += v - value_[p];
    value_[p] = v;
    // max_value_ is the max v value EVER seen, not the current max (the
    // current max can shrink and a heap to track it is not worth the hot
    // path). A too-large max only loosens the bound — still sound.
    if (v > max_value_) max_value_ = v;
  }
}

void CostRatioWatchdog::OnStep(Time, const Request& r, bool) {
  Observe(r);
  if (requests_seen_ >= next_publish_) Publish();
}

void CostRatioWatchdog::OnBatch(Time, std::span<const Request> reqs,
                                std::span<const uint8_t>) {
  for (const Request& r : reqs) Observe(r);
  if (requests_seen_ >= next_publish_) Publish();
}

double CostRatioWatchdog::lower_bound() const {
  const double lb =
      sum_values_ -
      static_cast<double>(instance_.cache_size()) * max_value_;
  return lb > 0.0 ? lb : 0.0;
}

double CostRatioWatchdog::ratio_upper() const {
  const double lb = lower_bound();
  return lb > 0.0 ? alg_cost_ / lb : 0.0;
}

void CostRatioWatchdog::Publish() {
  next_publish_ = requests_seen_ + kPublishEvery;
  health::CostRatioHealth::Get().Update(health_slot_, alg_cost_,
                                        lower_bound());
  if constexpr (telemetry::kEnabled) {
    const std::string suffix =
        options_.label.empty() ? "" : "{shard=\"" + options_.label + "\"}";
    telemetry::Registry& reg = telemetry::Registry::Get();
    reg.GetGauge("wmlp_watchdog_alg_cost" + suffix).Set(alg_cost_);
    reg.GetGauge("wmlp_watchdog_opt_lower_bound" + suffix)
        .Set(lower_bound());
    reg.GetGauge("wmlp_watchdog_cost_ratio_upper" + suffix)
        .Set(ratio_upper());
    reg.GetGauge("wmlp_watchdog_requests" + suffix)
        .Set(static_cast<double>(requests_seen_));
  }
}

}  // namespace wmlp
