// Algorithm 2 (Section 4.3.3): distribution-free online rounding for
// weighted multi-level paging. At ell = 1 it is Algorithm 1 (Section
// 4.3.1), so this one class serves every hierarchy depth.
//
// Scaled prefix variables v(p, i) = min(beta * u(p, i), 1), v(p, 0) = 1.
// The coupled product distribution D(t) picks copy (p, i) with probability
// v(p, i-1) - v(p, i) (a per-page threshold theta ~ U[0,1] falling in that
// interval), none with probability v(p, ell).
//
// The paper states the rounding stepwise: every step, each cached copy
// (p, i) whose boundary v(p, i) rose demotes to (p, i+1) — eviction at
// i = ell — with the conditional probability
// Delta v(p, i) / (v(p, i-1, t) - v(p, i, t-1)), and keeps demoting while
// the next boundary moved too. While a copy sits at level i its upper
// boundary v(p, i-1) is frozen (it can only rise once u(p, i) has reached
// it), so these conditional steps chain to a single uniform threshold:
//
//   - when a copy (p, i) is placed — the requested page's copy after every
//     request — draw theta ~ U[v(p, i), v(p, i-1)) and arm a fractional
//     watch on u(p, i) > theta / beta (FractionalPolicy::ArmWatch);
//   - when the watch fires, the boundary crossed theta. All deeper levels
//     share the rising value, so every further conditional step has
//     probability 1: the copy cascades down the levels and out
//     (Replace(p, i+1), ..., Replace(p, ell), Evict(p));
//   - reset pass over weight classes of *copies*, heaviest first, against
//     the fractional suffix mass k_{>=c}(t) = sum_p (1 - u(p, j_p(c))),
//     read as a band from the fractional layer's aggregates and computed
//     exactly (an O(n * ell) scan) only when the band straddles the
//     decision.
//
// Per request this is O(fired watches + weight groups + classes): no walk
// over the pages whose fractional value moved. tests/rounding_oracle.h
// keeps the stepwise form as a test oracle; the distribution battery in
// tests/rounding_distribution_test.cpp checks the two agree.
//
// Class-ceiling weights: the fractional stack is attached to the
// instance with every weight w snapped up to its class ceiling
// w^ = 2^ClassOf(w) (ClassCeilingInstance in core/weight_classes.h). Every
// copy keeps its class, so the rounding's classes, watches and resets read
// the same values; the cache, and every eviction cost reported, keep the
// real weights. The solver's weight groups collapse from up to n
// (per-page weights) to at most the number of classes, and the guarantee
// loses at most a factor of 2: ALG(w) <= ALG(w^) <= c OPT(w^) <= 2c OPT(w).
#pragma once

#include <optional>
#include <vector>

#include "core/fractional.h"
#include "core/weight_classes.h"
#include "sim/policy.h"
#include "util/rng.h"

namespace wmlp {

struct MultiLevelRoundingOptions {
  double beta = 0.0;  // 0 -> 4 ln(k + 1)
  // Run CheckConsistency after every request and abort on divergence
  // (debug aid; WMLP_AUDIT builds always do).
  bool paranoid = false;
};

class RoundedMultiLevel final : public Policy {
 public:
  RoundedMultiLevel(FractionalPolicyPtr fractional, uint64_t seed,
                    const MultiLevelRoundingOptions& options = {});

  void Attach(const Instance& instance) override;
  void Serve(Time t, const Request& r, CacheOps& ops) override;
  std::string name() const override;

  // Batched-front prefetch hints (sim/policy.h): pull the fractional
  // solver's per-page state and the threshold the serve will touch. Gated
  // on the §13 state footprint, fixed at Attach.
  int32_t PrefetchDistance() const override;
  void Prefetch(const Request& r) const override;

  const FractionalPolicy& fractional() const { return *fractional_; }
  double beta() const { return beta_; }
  int64_t reset_evictions() const { return reset_evictions_; }
  // Reset passes whose class-mass band straddled a decision, forcing the
  // exact scan.
  int64_t exact_mass_scans() const { return exact_mass_scans_; }
  // The threshold drawn for p's cached copy (theta in the header comment).
  double threshold(PageId p) const {
    return theta_[static_cast<size_t>(p)];
  }

  // Recomputes the class-suffix masses by scan and the cached-copy counts
  // from the cache, and checks:
  //   - the incremental per-class cached counts;
  //   - the class-mass band: the scan lies within the fractional layer's
  //     [lo, hi] bounds;
  //   - thresholds and watches: every cached copy (p, c) has
  //     v(p, c) <= theta <= v(p, c-1) and, if theta < 1, a watch armed on
  //     (p, c); no uncached page has a watch;
  //   - the Algorithm 2 reset postcondition: every class-suffix occupancy
  //     is at most the ceiling of its fractional suffix mass.
  // Runs after every Serve under WMLP_AUDIT or options.paranoid; failures
  // route through audit::Fail. Public so audit tests can drive it on
  // corrupted state.
  void CheckConsistency(const CacheOps& ops, Time t) const;

  // Overwrites p's threshold without touching its watch (audit tests).
  void set_threshold_for_testing(PageId p, double theta) {
    theta_[static_cast<size_t>(p)] = theta;
  }

 private:
  double V(double u) const;  // min(beta * u, 1)
  // Draws the threshold of p's copy at level c and arms its watch.
  void PlaceThreshold(PageId p, Level c);
  void ResetPass(Time t, const Request& r, CacheOps& ops);
  void ScanMasses(std::span<double> out) const;

  FractionalPolicyPtr fractional_;
  Rng rng_;
  MultiLevelRoundingOptions options_;
  double beta_ = 0.0;
  const Instance* instance_ = nullptr;
  std::optional<ClassCeilingInstance> stack_;  // what fractional_ runs on
  std::unique_ptr<WeightClasses> classes_;
  std::vector<double> theta_;  // per page; meaningful while cached
  std::vector<int32_t> cached_per_class_;
  // Reset-pass class-suffix mass bounds (exact after a scan).
  std::vector<double> mass_lo_;
  std::vector<double> mass_hi_;
  // CheckConsistency scratch, hoisted so audit/paranoid builds do not
  // allocate per step.
  mutable std::vector<double> check_mass_;
  mutable std::vector<double> check_lo_;
  mutable std::vector<double> check_hi_;
  mutable std::vector<int32_t> check_cached_;
  int64_t reset_evictions_ = 0;
  int64_t exact_mass_scans_ = 0;
  int32_t prefetch_dist_ = 0;  // fixed at Attach (footprint gate)
};

}  // namespace wmlp
