// Test oracle: Algorithm 2 in its stepwise form (Section 4.3.3), as the
// library ran it before the threshold rounding (core/rounding_multilevel.h).
//
// Every step it diffs every page's prefix variables against the previous
// step and walks each cached copy whose boundary moved through the
// sequential demotion sweep: copy (p, i) demotes to (p, i+1) — eviction at
// i = ell — with probability
//   Delta v(p, i) / (v(p, i-1, t) - v(p, i, t-1)),
// and the sweep continues at the new level. The reset pass uses exact
// class-suffix masses from a scan and the same victim rule as the library.
// It reads only U(), so it needs nothing from the fractional layer beyond
// the values themselves, and costs O(n * ell) per step — fine on the small
// instances the distribution battery runs. Like the library it attaches
// its stack through ClassCeilingInstance, and its fallback victim is the
// cheapest copy by the stack's weights.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/fractional.h"
#include "core/weight_classes.h"
#include "sim/policy.h"
#include "util/check.h"
#include "util/rng.h"

namespace wmlp::testing {

class StepwiseRoundingOracle final : public Policy {
 public:
  StepwiseRoundingOracle(FractionalPolicyPtr fractional, uint64_t seed,
                         double beta = 0.0)
      : fractional_(std::move(fractional)), rng_(seed), beta_opt_(beta) {}

  void Attach(const Instance& instance) override {
    instance_ = &instance;
    beta_ = beta_opt_ > 0.0
                ? beta_opt_
                : 4.0 * std::log(static_cast<double>(instance.cache_size()) +
                                 1.0);
    beta_ = std::max(beta_, 1.0);
    stack_.emplace(instance);
    fractional_->Attach(stack_->get());
    classes_ = std::make_unique<WeightClasses>(instance);
    u_prev_.assign(static_cast<size_t>(instance.num_pages()) *
                       static_cast<size_t>(instance.num_levels()),
                   1.0);
    mass_.assign(static_cast<size_t>(classes_->num_classes()), 0.0);
    reset_evictions_ = 0;
  }

  void Serve(Time t, const Request& r, CacheOps& ops) override {
    const Instance& inst = *instance_;
    const int32_t ell = inst.num_levels();
    fractional_->Serve(t, r);

    // Requested page (Algorithm 2 lines 2-6).
    const Level cur = ops.cache().level_of(r.page);
    if (cur != 0 && cur > r.level) {
      ops.Replace(r.page, r.level);
    } else if (cur == 0) {
      ops.Fetch(r.page, r.level);
    }

    // Demotion sweep over every page, in page order.
    for (PageId p = 0; p < inst.num_pages(); ++p) {
      const Level cached = ops.cache().level_of(p);
      if (p != r.page && cached != 0) {
        for (Level i = cached; i <= ell; ++i) {
          if (ops.cache().level_of(p) != i) continue;
          const double dv = V(fractional_->U(p, i)) - VPrev(p, i);
          if (dv <= 0.0) break;  // boundary did not move
          const double upper = i == 1 ? 1.0 : V(fractional_->U(p, i - 1));
          const double denom = upper - VPrev(p, i);
          double prob = 1.0;
          if (denom > 1e-12) prob = std::min(1.0, dv / denom);
          if (!rng_.NextBernoulli(prob)) break;
          if (i == ell) {
            ops.Evict(p);
          } else {
            ops.Replace(p, i + 1);
          }
        }
      }
      for (Level i = 1; i <= ell; ++i) {
        u_prev_[Idx(p, i)] = fractional_->U(p, i);
      }
    }

    // Reset pass over copy weight classes, heaviest first.
    ScanClassSuffixMass(
        stack_->get(),
        [this](PageId p, Level i) { return fractional_->U(p, i); },
        std::span<double>(mass_));
    const int32_t classes = classes_->num_classes();
    std::vector<int64_t> cached_per_class(static_cast<size_t>(classes), 0);
    for (PageId q : ops.cache().pages()) {
      ++cached_per_class[static_cast<size_t>(ClassOfCached(ops, q))];
    }
    int64_t suffix_cached = 0;
    for (int32_t c = classes - 1; c >= 0; --c) {
      suffix_cached += cached_per_class[static_cast<size_t>(c)];
      while (suffix_cached > CeilTol(mass_[static_cast<size_t>(c)])) {
        PageId victim = -1;
        for (PageId q : ops.cache().pages()) {
          if (q != r.page && ClassOfCached(ops, q) == c) {
            victim = q;
            break;
          }
        }
        if (victim < 0) {
          Cost best = std::numeric_limits<Cost>::infinity();
          for (PageId q : ops.cache().pages()) {
            if (q == r.page || ClassOfCached(ops, q) < c) continue;
            const Cost w = stack_->get().weight(q, ops.cache().level_of(q));
            if (w < best) {
              best = w;
              victim = q;
            }
          }
        }
        WMLP_CHECK(victim >= 0);
        ops.Evict(victim);
        --suffix_cached;
        ++reset_evictions_;
      }
    }
  }

  std::string name() const override {
    return "stepwise-oracle(" + fractional_->name() + ")";
  }
  int64_t reset_evictions() const { return reset_evictions_; }

 private:
  static int64_t CeilTol(double v) {
    return static_cast<int64_t>(std::ceil(v - 1e-7));
  }
  size_t Idx(PageId p, Level i) const {
    return static_cast<size_t>(p) *
               static_cast<size_t>(instance_->num_levels()) +
           static_cast<size_t>(i - 1);
  }
  double V(double u) const { return std::min(beta_ * u, 1.0); }
  double VPrev(PageId p, Level i) const { return V(u_prev_[Idx(p, i)]); }
  int32_t ClassOfCached(const CacheOps& ops, PageId q) const {
    return classes_->class_of(q, ops.cache().level_of(q));
  }

  FractionalPolicyPtr fractional_;
  Rng rng_;
  double beta_opt_;
  double beta_ = 0.0;
  const Instance* instance_ = nullptr;
  std::optional<ClassCeilingInstance> stack_;  // what fractional_ runs on
  std::unique_ptr<WeightClasses> classes_;
  std::vector<double> u_prev_;  // flattened [p * ell + (i-1)]
  std::vector<double> mass_;
  int64_t reset_evictions_ = 0;
};

}  // namespace wmlp::testing
