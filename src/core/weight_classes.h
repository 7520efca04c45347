// Geometric weight classes (Section 4.3): class c holds weights in
// (2^{c-1}, 2^c], with weight 1 in class 0. The rounding algorithms compare
// cached-copy counts against fractional mass per class *suffix* P_{>=c}.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>

#include "trace/instance.h"
#include "util/check.h"

namespace wmlp {

class WeightClasses {
 public:
  // Smallest c >= 0 with w <= 2^c (w >= 1), up to a 1e-12 relative
  // tolerance so weights a rounding error above a power of two stay in
  // its class.
  static int32_t ClassOf(Cost w) {
    WMLP_CHECK(w >= 1.0 && w <= std::numeric_limits<Cost>::max());
    // w = 1.f * 2^e with e >= 0, so 2^e <= w < 2^{e+1}: the class is e + 1
    // unless w is within the tolerance of 2^e. The bound 2^e (1 + 1e-12)
    // is assembled from its bits — the same double a doubling loop from 1
    // computes — because this runs on every solver cursor move.
    constexpr uint64_t kMantissa = (uint64_t{1} << 52) - 1;
    const uint64_t bits = std::bit_cast<uint64_t>(w);
    const auto biased = static_cast<int32_t>(bits >> 52);
    const double bound = std::bit_cast<double>(
        (static_cast<uint64_t>(biased) << 52) |
        (std::bit_cast<uint64_t>(1.0 + 1e-12) & kMantissa));
    const int32_t e = biased - 1023;
    return w <= bound ? e : e + 1;
  }

  // The class ceiling 2^ClassOf(w): the weight the randomized policy's
  // fractional stack runs on (ClassCeilingInstance below). It keeps w's
  // class and lies in [w / (1 + 1e-12), 2w). Class 1024 (weights above
  // 2^1023 (1 + 1e-12)) would give 2^1024 = inf, so it clamps to the
  // largest finite double, which is in that class too.
  static Cost Ceiling(Cost w) {
    const int32_t c = ClassOf(w);
    return c > 1023 ? std::numeric_limits<Cost>::max()
                    : std::bit_cast<double>(static_cast<uint64_t>(c + 1023)
                                            << 52);
  }

  // O(1): classes are read from the instance's weights on demand, so
  // attaching costs nothing per page. ClassOf is monotone, so the
  // heaviest copy has the largest class.
  explicit WeightClasses(const Instance& instance)
      : instance_(&instance),
        num_classes_(ClassOf(instance.max_weight()) + 1) {}

  int32_t num_classes() const { return num_classes_; }
  int32_t class_of(PageId p, Level i) const {
    return ClassOf(instance_->weight(p, i));
  }

 private:
  const Instance* instance_;
  int32_t num_classes_;
};

// The instance the randomized policy's fractional stack runs on
// (core/rounding_multilevel.h): `source` with every weight w replaced by
// WeightClasses::Ceiling(w). When every weight is already its own ceiling
// (all powers of two, or the clamped top) that is `source` itself and
// nothing is copied; otherwise it owns one flat copy. `source` must outlive
// it. The policy, the rounding test oracle and the benches that time the
// stack alone all attach through this one type.
class ClassCeilingInstance {
 public:
  explicit ClassCeilingInstance(const Instance& source) : source_(&source) {
    for (PageId p = 0; p < source.num_pages(); ++p) {
      for (Level i = 1; i <= source.num_levels(); ++i) {
        const Cost w = source.weight(p, i);
        if (WeightClasses::Ceiling(w) != w) {
          copy_ = std::make_unique<const Instance>(
              source.MapWeights(WeightClasses::Ceiling));
          return;
        }
      }
    }
  }

  const Instance& get() const { return copy_ != nullptr ? *copy_ : *source_; }

 private:
  const Instance* source_;
  std::unique_ptr<const Instance> copy_;  // null: source is its own ceiling
};

// Class-suffix cached mass S(c) = sum_p (1 - u(p, j_p(c))) (see
// FractionalPolicy::ClassSuffixMass) by a scan of every page through
// `u(p, i)`: O(n * ell). Weights are non-increasing in the level, so the
// copies of p in a class suffix are a prefix of its levels and the
// per-class marginals u(p, i-1) - u(p, i) telescope to 1 - u(p, j_p(c)).
template <typename UFn>
void ScanClassSuffixMass(const Instance& instance, UFn&& u,
                         std::span<double> out) {
  std::fill(out.begin(), out.end(), 0.0);
  const int32_t classes = static_cast<int32_t>(out.size());
  for (PageId p = 0; p < instance.num_pages(); ++p) {
    double above = 1.0;
    for (Level i = 1; i <= instance.num_levels(); ++i) {
      const double ui = u(p, i);
      const int32_t c = WeightClasses::ClassOf(instance.weight(p, i));
      if (c < classes) out[static_cast<size_t>(c)] += above - ui;
      above = ui;
    }
  }
  for (size_t c = out.size(); c-- > 1;) out[c - 1] += out[c];
}

}  // namespace wmlp
