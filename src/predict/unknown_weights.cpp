#include "predict/unknown_weights.h"

#include <algorithm>
#include <limits>

#include "telemetry/telemetry.h"
#include "util/check.h"

namespace wmlp::predict {

void UnknownWeightsPolicy::Attach(const Instance& instance) {
  instance_ = &instance;
  const size_t cells = static_cast<size_t>(instance.num_pages()) *
                       static_cast<size_t>(instance.num_levels());
  est_.assign(cells, instance.min_weight());
  observed_.assign(cells, 0);
  credit_.assign(static_cast<size_t>(instance.num_pages()), 0.0);
  offset_ = 0.0;
}

size_t UnknownWeightsPolicy::Index(PageId p, Level i) const {
  return static_cast<size_t>(p) *
             static_cast<size_t>(instance_->num_levels()) +
         static_cast<size_t>(i - 1);
}

double UnknownWeightsPolicy::EstimatedWeight(PageId p, Level i) const {
  return est_[Index(p, i)];
}

bool UnknownWeightsPolicy::Observed(PageId p, Level i) const {
  return observed_[Index(p, i)] != 0;
}

void UnknownWeightsPolicy::ObserveWeight(PageId p, Level i, Cost w) {
  est_[Index(p, i)] = w;
  observed_[Index(p, i)] = 1;
  // w(p, j) >= w(p, i) for j < i: the observation is a valid lower bound
  // for every more expensive level of the same page.
  for (Level j = 1; j < i; ++j) {
    const size_t idx = Index(p, j);
    if (observed_[idx] == 0) est_[idx] = std::max(est_[idx], w);
  }
  WMLP_TELEMETRY_COUNTER(revealed, "wmlp_unknown_weights_revealed_total");
  revealed.Inc();
}

void UnknownWeightsPolicy::Serve(Time /*t*/, const Request& r, CacheOps& ops) {
  const CacheState& cache = ops.cache();
  if (!cache.serves(r)) {
    if (cache.contains(r.page)) {
      // Forced replace: paying the old copy's eviction weight reveals it.
      const Level cur = cache.level_of(r.page);
      ops.Replace(r.page, r.level);
      ObserveWeight(r.page, cur, ops.instance().weight(r.page, cur));
    } else {
      if (cache.size() == cache.capacity()) {
        double min_credit = std::numeric_limits<double>::infinity();
        PageId victim = -1;
        for (PageId q : cache.pages()) {
          if (q == r.page) continue;
          const double c = credit_[static_cast<size_t>(q)] - offset_;
          if (c < min_credit) {
            min_credit = c;
            victim = q;
          }
        }
        WMLP_CHECK_MSG(victim >= 0, "unknown-weights: no victim");
        offset_ += std::max(0.0, min_credit);
        const Level vl = cache.level_of(victim);
        ops.Evict(victim);
        ObserveWeight(victim, vl, ops.instance().weight(victim, vl));
      }
      ops.Fetch(r.page, r.level);
    }
  }
  // Landlord refresh, on the estimate of the now-cached copy.
  const Level lvl = cache.level_of(r.page);
  credit_[static_cast<size_t>(r.page)] =
      std::max(credit_[static_cast<size_t>(r.page)],
               offset_ + est_[Index(r.page, lvl)]);
}

}  // namespace wmlp::predict
