#include "core/rounding_multilevel.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "kernels/kernels.h"
#include "telemetry/telemetry.h"
#include "util/audit.h"
#include "util/check.h"
#include "util/hot_path.h"

namespace wmlp {

namespace {
// Ceiling with tolerance for floating-point drift in the class masses.
int64_t CeilTol(double v) {
  return static_cast<int64_t>(std::ceil(v - 1e-7));
}
}  // namespace

RoundedMultiLevel::RoundedMultiLevel(FractionalPolicyPtr fractional,
                                     uint64_t seed,
                                     const MultiLevelRoundingOptions& options)
    : fractional_(std::move(fractional)), rng_(seed), options_(options) {
  WMLP_CHECK(fractional_ != nullptr);
  WMLP_CHECK(options.beta >= 0.0);
}

void RoundedMultiLevel::Attach(const Instance& instance) {
  instance_ = &instance;
  beta_ = options_.beta > 0.0
              ? options_.beta
              : 4.0 * std::log(static_cast<double>(instance.cache_size()) +
                               1.0);
  beta_ = std::max(beta_, 1.0);
  stack_.emplace(instance);
  fractional_->Attach(stack_->get());
  classes_ = std::make_unique<WeightClasses>(instance);
  const size_t classes = static_cast<size_t>(classes_->num_classes());
  theta_.assign(static_cast<size_t>(instance.num_pages()), 1.0);
  cached_per_class_.assign(classes, 0);
  mass_lo_.assign(classes, 0.0);
  mass_hi_.assign(classes, 0.0);
  reset_evictions_ = 0;
  exact_mass_scans_ = 0;
  // Prefetch front gated on the §13 state footprint: the per-page rows the
  // serve touches are the fractional solver's PageRec line, its u_ row and
  // this policy's threshold.
  const int64_t page_bytes = static_cast<int64_t>(
      64 + sizeof(double) * (1 + static_cast<size_t>(instance.num_levels())));
  prefetch_dist_ =
      static_cast<int64_t>(instance.num_pages()) * page_bytes >
              kernels::kPrefetchMinFootprintBytes
          ? kernels::kBatchPrefetchDistance
          : 0;
}

double RoundedMultiLevel::V(double u) const {
  return std::min(beta_ * u, 1.0);
}

void RoundedMultiLevel::PlaceThreshold(PageId p, Level c) {
  const double lo = V(fractional_->U(p, c));
  const double hi = c == 1 ? 1.0 : V(fractional_->U(p, c - 1));
  // An empty interval (the level above shares the value) leaves theta at
  // the boundary: the copy goes on the boundary's next rise.
  const double theta = hi > lo ? lo + rng_.NextDouble() * (hi - lo) : lo;
  theta_[static_cast<size_t>(p)] = theta;
  // v(p, c) = min(beta u, 1) > theta iff u > theta / beta while theta < 1;
  // a threshold at 1 is never crossed.
  if (theta < 1.0) {
    fractional_->ArmWatch(p, c, theta / beta_);
  } else {
    fractional_->DisarmWatch(p);
  }
}

void RoundedMultiLevel::Serve(Time t, const Request& r, CacheOps& ops) {
  const int32_t ell = instance_->num_levels();
  fractional_->Serve(t, r);

  // ---- Requested page (Algorithm 2 lines 2-6), then its threshold. ------
  Level cur = ops.cache().level_of(r.page);
  if (cur == 0 || cur > r.level) {
    if (cur != 0) {
      --cached_per_class_[static_cast<size_t>(classes_->class_of(r.page,
                                                                 cur))];
      ops.Replace(r.page, r.level);
    } else {
      ops.Fetch(r.page, r.level);
    }
    cur = r.level;
    ++cached_per_class_[static_cast<size_t>(classes_->class_of(r.page, cur))];
  }
  PlaceThreshold(r.page, cur);

  // ---- Crossed thresholds: the copy cascades down and out. ---------------
  for (const PageId p : fractional_->fired()) {
    Level c = ops.cache().level_of(p);
    WMLP_CHECK(c != 0);
    --cached_per_class_[static_cast<size_t>(classes_->class_of(p, c))];
    for (; c < ell; ++c) ops.Replace(p, c + 1);
    ops.Evict(p);
  }

  ResetPass(t, r, ops);

  if (audit::kEnabled || options_.paranoid) CheckConsistency(ops, t);
}

void RoundedMultiLevel::ResetPass(Time t, const Request& r, CacheOps& ops) {
  auto class_of_cached = [&](PageId q) {
    return classes_->class_of(q, ops.cache().level_of(q));
  };
  fractional_->ClassSuffixMass(stack_->get(), mass_lo_, mass_hi_);
  int64_t suffix_cached = 0;
  for (int32_t c = classes_->num_classes() - 1; c >= 0; --c) {
    suffix_cached += cached_per_class_[static_cast<size_t>(c)];
    for (;;) {
      // suffix_cached > ceil(S) is a violation; S lies in [lo, hi].
      if (suffix_cached <= CeilTol(mass_lo_[static_cast<size_t>(c)])) break;
      if (suffix_cached <= CeilTol(mass_hi_[static_cast<size_t>(c)])) {
        // The band straddles the decision: settle it with the exact
        // masses (lo == hi afterwards, so at most once per request).
        ScanMasses(mass_lo_);
        mass_hi_ = mass_lo_;
        ++exact_mass_scans_;
        if constexpr (telemetry::kEnabled) {
          WMLP_TELEMETRY_COUNTER(scans,
                                 "wmlp_rounding_exact_mass_scans_total");
          scans.Inc();
        }
        continue;
      }
      // Preferred victim: an arbitrary cached class-c copy other than p_t
      // (the paper's rule). Corner case Algorithm 2 leaves to the full
      // version: p_t's unit of fractional mass can *split* across classes
      // (its cached copy sits at a cheap level while most of its mass sits
      // at an expensive one), leaving class c with p_t as its only member
      // while heavier classes exactly meet their ceilings. Then evicting
      // the cheapest other cached copy of a class c' >= c is always
      // feasibility-safe: every violated suffix count (all have class
      // <= c') drops by one, and heavier suffixes only lose a copy. One
      // exists: if p_t's copy is in the suffix it brings a full unit of
      // mass, so the suffix holds at least two copies. "Cheapest" reads the
      // stack's weights, so the choice among copies of one class does not
      // depend on where the real weights sit inside it.
      PageId victim = -1;
      for (PageId q : ops.cache().pages()) {
        if (q != r.page && class_of_cached(q) == c) {
          victim = q;
          break;
        }
      }
      if (victim < 0) {
        Cost best = std::numeric_limits<Cost>::infinity();
        for (PageId q : ops.cache().pages()) {
          if (q == r.page || class_of_cached(q) < c) continue;
          const Cost w = stack_->get().weight(q, ops.cache().level_of(q));
          if (w < best) {
            best = w;
            victim = q;
          }
        }
      }
      WMLP_CHECK_MSG(victim >= 0,
                     "type-" << c << " reset with no evictable copy at t="
                             << t);
      const int32_t victim_class = class_of_cached(victim);
      --cached_per_class_[static_cast<size_t>(victim_class)];
      fractional_->DisarmWatch(victim);
      ops.Evict(victim);
      --suffix_cached;
      ++reset_evictions_;
      if constexpr (telemetry::kEnabled) {
        WMLP_TELEMETRY_COUNTER(resets, "wmlp_rounding_reset_evictions_total");
        resets.Inc();
        // Which weight class triggered the reset step: class index c lands
        // in pow2 bucket floor(log2(c + 1)).
        WMLP_TELEMETRY_HISTOGRAM(
            by_class, "wmlp_rounding_reset_class",
            ::wmlp::telemetry::HistogramLayout::PowerOfTwo());
        by_class.Observe(static_cast<double>(c) + 1.0);
      }
    }
  }
}

void RoundedMultiLevel::ScanMasses(std::span<double> out) const {
  ScanClassSuffixMass(
      stack_->get(),
      [this](PageId p, Level i) { return fractional_->U(p, i); }, out);
}

void RoundedMultiLevel::CheckConsistency(const CacheOps& ops, Time t) const {
  const Instance& inst = *instance_;
  const size_t classes = cached_per_class_.size();
  std::vector<double>& mass = check_mass_;
  std::vector<int32_t>& cached = check_cached_;
  mass.resize(classes);
  check_lo_.resize(classes);
  check_hi_.resize(classes);
  ScanMasses(mass);
  fractional_->ClassSuffixMass(stack_->get(), check_lo_, check_hi_);
  cached.assign(classes, 0);
  for (PageId p = 0; p < inst.num_pages(); ++p) {
    const Level c = ops.cache().level_of(p);
    Level watched = 0;
    const bool armed = fractional_->watch(p, &watched, nullptr);
    if (c == 0) {
      WMLP_AUDIT_CHECK(!armed, "uncached page " << p << " has a watch at t="
                                                << t);
      continue;
    }
    ++cached[static_cast<size_t>(classes_->class_of(p, c))];
    const double theta = theta_[static_cast<size_t>(p)];
    const double v_lo = V(fractional_->U(p, c));
    const double v_hi = c == 1 ? 1.0 : V(fractional_->U(p, c - 1));
    WMLP_AUDIT_CHECK(theta >= v_lo - 1e-9 && theta <= v_hi + 1e-9,
                     "threshold of page " << p << " at level " << c
                         << " left its interval at t=" << t << ": theta="
                         << theta << " not in [" << v_lo << ", " << v_hi
                         << "]");
    WMLP_AUDIT_CHECK(theta >= 1.0 || (armed && watched == c),
                     "cached copy (" << p << ", " << c
                         << ") has no watch on its level at t=" << t);
  }
  for (size_t c = 0; c < classes; ++c) {
    WMLP_AUDIT_CHECK(cached[c] == cached_per_class_[c],
                     "class " << c << " cached-count drift at t=" << t
                              << ": inc=" << cached_per_class_[c]
                              << " true=" << cached[c]);
    WMLP_AUDIT_CHECK(
        mass[c] >= check_lo_[c] - 1e-6 && mass[c] <= check_hi_[c] + 1e-6,
        "class-suffix " << c << " mass " << mass[c] << " outside its band ["
                        << check_lo_[c] << ", " << check_hi_[c]
                        << "] at t=" << t);
  }
  // Reset postcondition (Algorithm 2): after the heaviest-first reset pass
  // no class suffix holds more copies than its fractional mass ceiling.
  int64_t suffix_cached = 0;
  for (size_t c = classes; c-- > 0;) {
    suffix_cached += cached[c];
    WMLP_AUDIT_CHECK(suffix_cached <= CeilTol(mass[c]),
                     "reset postcondition violated at t=" << t
                         << ": suffix >= class " << c << " holds "
                         << suffix_cached << " copies > ceil(mass "
                         << mass[c] << ")");
  }
}

std::string RoundedMultiLevel::name() const {
  return "rounded-ml(" + fractional_->name() + ")";
}

int32_t RoundedMultiLevel::PrefetchDistance() const {
  return prefetch_dist_;
}

void RoundedMultiLevel::Prefetch(const Request& r) const {
  fractional_->PrefetchPage(r.page);
  if (static_cast<size_t>(r.page) < theta_.size()) {
    WMLP_PREFETCH_READ(theta_.data() + r.page);
  }
}

}  // namespace wmlp
