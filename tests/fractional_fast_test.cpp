// Randomized equivalence suite: the output-sensitive FractionalMlp must
// reproduce the FractionalMlpReference trajectory — full u state and both
// cost meters — to 1e-9 after every step, across instance shapes, weight
// models, trace generators, and the E8 eta-ablation values. Plus unit
// tests for the shared stopping-clock root finder and a regression test on
// near-degenerate weight spreads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/fractional.h"
#include "core/fractional_reference.h"
#include "core/stopping_clock.h"
#include "core/weight_classes.h"
#include "trace/generators.h"
#include "util/rng.h"

namespace wmlp {
namespace {

constexpr double kTol = 1e-9;

// Runs both solvers in lockstep and asserts full-state agreement after
// every step, so a divergence reports the first step it appears at.
//
// cost_abs_tol adds an absolute slack to the cost-meter comparison. It is
// 0 for well-conditioned instances; with near-degenerate weights (ratios
// ~1e12) any decision difference at the solvers' shared kEps = 1e-12
// tolerance moves O(w_max * kEps) ~ 1 of cost even though the u states
// agree to ~1e-12, so cost agreement below w_max * kEps per decision is
// not attainable and the test budgets for it explicitly.
void ExpectLockstepEquivalent(const Trace& trace,
                              const FractionalOptions& opts,
                              const std::string& label,
                              double cost_abs_tol = 0.0) {
  FractionalMlp fast(opts);
  FractionalMlpReference ref(opts);
  fast.Attach(trace.instance);
  ref.Attach(trace.instance);
  const int32_t n = trace.instance.num_pages();
  const int32_t ell = trace.instance.num_levels();
  ASSERT_DOUBLE_EQ(fast.eta(), ref.eta());
  for (Time t = 0; t < trace.length(); ++t) {
    const Request& r = trace.requests[static_cast<size_t>(t)];
    fast.Serve(t, r);
    ref.Serve(t, r);
    ASSERT_NEAR(fast.lp_cost(), ref.lp_cost(),
                cost_abs_tol + kTol * (1.0 + std::abs(ref.lp_cost())))
        << label << " lp_cost at t=" << t;
    ASSERT_NEAR(fast.movement_cost(), ref.movement_cost(),
                cost_abs_tol + kTol * (1.0 + std::abs(ref.movement_cost())))
        << label << " movement_cost at t=" << t;
    for (PageId p = 0; p < n; ++p) {
      for (Level i = 1; i <= ell; ++i) {
        ASSERT_NEAR(fast.U(p, i), ref.U(p, i), kTol)
            << label << " u(" << p << "," << i << ") at t=" << t
            << " (request p=" << r.page << " i=" << r.level << ")";
      }
    }
  }
}

Trace MakeRandomTrace(uint64_t seed) {
  Rng rng(seed);
  const int32_t n = 4 + static_cast<int32_t>(rng.NextBounded(29));
  const int32_t k = 1 + static_cast<int32_t>(
                            rng.NextBounded(static_cast<uint64_t>(n - 1)));
  const int32_t ell = 1 + static_cast<int32_t>(rng.NextBounded(4));
  const WeightModel models[] = {WeightModel::kUniform,
                                WeightModel::kGeometricLevels,
                                WeightModel::kZipfPages,
                                WeightModel::kLogUniform};
  const WeightModel wm = models[rng.NextBounded(4)];
  const double spread = 2.0 + 14.0 * rng.NextDouble();
  Instance inst(n, k, ell, MakeWeights(n, ell, wm, spread, seed + 1));
  const LevelMix mixes[] = {LevelMix::AllLowest(ell),
                            LevelMix::UniformMix(ell),
                            LevelMix::Geometric(ell, 0.5)};
  const LevelMix mix = mixes[rng.NextBounded(3)];
  const Time len = 100 + static_cast<Time>(rng.NextBounded(80));
  switch (rng.NextBounded(3)) {
    case 0:
      return GenZipf(inst, len, 0.4 + rng.NextDouble(), mix, seed + 2);
    case 1:
      return GenLoop(inst, len,
                     k + 1 + static_cast<int32_t>(rng.NextBounded(
                                 static_cast<uint64_t>(n - k))),
                     mix);
    default:
      return GenPhases(inst, len, std::min(n, k + 2), 25,
                       0.4 + rng.NextDouble(), mix, seed + 2);
  }
}

TEST(FractionalFast, MatchesReferenceOnRandomInstances) {
  // >= 200 randomized instances spanning shapes, weight models, mixes.
  for (uint64_t seed = 0; seed < 200; ++seed) {
    const Trace trace = MakeRandomTrace(seed * 7919 + 13);
    ExpectLockstepEquivalent(trace, {}, "seed=" + std::to_string(seed));
    if (HasFatalFailure()) return;  // first divergence is the report
  }
}

TEST(FractionalFast, MatchesReferenceAcrossEtaAblation) {
  // The E8 eta grid (bench_e8_eta_ablation) with k=16.
  constexpr int32_t n = 48;
  constexpr int32_t k = 16;
  constexpr int32_t ell = 2;
  const double dk = static_cast<double>(k);
  const double etas[] = {1e-6, 1.0 / (dk * dk), 1.0 / dk,
                         1.0 / std::sqrt(dk), 1.0};
  Instance inst(n, k, ell,
                MakeWeights(n, ell, WeightModel::kGeometricLevels, 8.0, 3));
  const Trace trace = GenZipf(inst, 250, 0.7, LevelMix::UniformMix(ell), 4);
  for (const double eta : etas) {
    FractionalOptions opts;
    opts.eta = eta;
    ExpectLockstepEquivalent(trace, opts, "eta=" + std::to_string(eta));
    if (HasFatalFailure()) return;
  }
}

TEST(FractionalFast, MatchesReferenceOnNearDegenerateWeights) {
  // Weight ratios of ~1e12 within and across pages: the stopping-clock
  // conditioning regression (Newton stalls; bisection fallback must keep
  // both solvers on the same trajectory).
  constexpr int32_t n = 8;
  constexpr int32_t k = 3;
  constexpr int32_t ell = 2;
  std::vector<std::vector<Cost>> w(static_cast<size_t>(n));
  for (int32_t p = 0; p < n; ++p) {
    const bool heavy = (p % 2) == 0;
    w[static_cast<size_t>(p)] = {heavy ? 1e12 : 1.0 + 1e-9 * p, 1.0};
  }
  Instance inst(n, k, ell, std::move(w));
  const Trace trace = GenZipf(inst, 200, 0.6, LevelMix::UniformMix(ell), 9);
  // u states must still agree to kTol; the cost meters get a w_max * kEps
  // per-step budget for knife-edge decisions (see ExpectLockstepEquivalent).
  const double cost_slack = 1e12 * 1e-12 * static_cast<double>(trace.length());
  ExpectLockstepEquivalent(trace, {}, "degenerate", cost_slack);
}

// Runs both solvers over `trace` carrying the same watches — the served
// page re-armed after every request on its requested level, a random
// distance above its value, as the rounding does — and checks they fire on
// the same request. Returns the number of agreeing firings. A threshold
// within 1e-7 of the value it is judged on may fall either way between
// trajectories that agree to 1e-9, so those pages are left out.
int64_t ExpectWatchesFireInLockstep(const Trace& trace, uint64_t seed) {
  FractionalMlp fast;
  FractionalMlpReference ref;
  fast.Attach(trace.instance);
  ref.Attach(trace.instance);
  const int32_t n = trace.instance.num_pages();
  Rng rng(seed + 99);
  std::vector<Level> level(static_cast<size_t>(n), 0);
  std::vector<double> x(static_cast<size_t>(n), 0.0);
  int64_t fired_total = 0;
  for (Time t = 0; t < trace.length(); ++t) {
    const Request& r = trace.requests[static_cast<size_t>(t)];
    fast.Serve(t, r);
    ref.Serve(t, r);
    std::vector<PageId> a(fast.fired().begin(), fast.fired().end());
    std::vector<PageId> b(ref.fired().begin(), ref.fired().end());
    for (PageId p = 0; p < n; ++p) {
      const size_t sp = static_cast<size_t>(p);
      const bool in_a = std::binary_search(a.begin(), a.end(), p);
      const bool in_b = std::binary_search(b.begin(), b.end(), p);
      if (!in_a && !in_b) continue;
      if (std::abs(ref.U(p, level[sp]) - x[sp]) >= 1e-7) {
        EXPECT_EQ(in_a, in_b) << "seed " << seed << " page " << p
                              << " t=" << t;
      }
      // A watch that fired on one side only is dropped on the other.
      fast.DisarmWatch(p);
      ref.DisarmWatch(p);
      level[sp] = 0;
      fired_total += in_a && in_b ? 1 : 0;
    }
    const double u = ref.U(r.page, r.level);
    const double above = r.level == 1 ? 1.0 : ref.U(r.page, r.level - 1);
    level[static_cast<size_t>(r.page)] = r.level;
    x[static_cast<size_t>(r.page)] = u + (above - u) * rng.NextDouble();
    fast.ArmWatch(r.page, r.level, x[static_cast<size_t>(r.page)]);
    ref.ArmWatch(r.page, r.level, x[static_cast<size_t>(r.page)]);
  }
  return fired_total;
}

TEST(FractionalFast, WatchesFireOnTheSameRequestAsReference) {
  // The fast solver fires watches on its clock, the reference on its
  // change list; both must fire on the same request.
  int64_t fired_total = 0;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    fired_total += ExpectWatchesFireInLockstep(MakeRandomTrace(seed), seed);
  }
  EXPECT_GT(fired_total, 500);
}

TEST(FractionalFast, WatchesSurviveClockRenormalization) {
  // Heavy weights advance the water clock past the renormalization
  // threshold many times over a long trace; armed watches shift with it.
  int64_t fired_total = 0;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    Instance inst(24, 6, 2,
                  MakeWeights(24, 2, WeightModel::kLogUniform, 1e3, seed));
    const Trace trace =
        GenZipf(inst, 3000, 0.6, LevelMix::UniformMix(2), seed + 7);
    fired_total += ExpectWatchesFireInLockstep(trace, seed);
  }
  EXPECT_GT(fired_total, 1000);
}

TEST(FractionalFast, OutputSensitiveCountersAdvance) {
  Instance inst(32, 8, 2,
                MakeWeights(32, 2, WeightModel::kGeometricLevels, 4.0, 5));
  const Trace trace = GenZipf(inst, 300, 0.8, LevelMix::UniformMix(2), 6);
  FractionalMlp fast;
  fast.Attach(inst);
  for (Time t = 0; t < trace.length(); ++t) {
    fast.Serve(t, trace.requests[static_cast<size_t>(t)]);
  }
  EXPECT_GT(fast.segments_solved(), 0);
  EXPECT_GT(fast.events_processed(), 0);
  // Shared geometric level weights: one group per level, not per page.
  EXPECT_LE(fast.num_weight_groups(), 2);
}

// The stopping-clock solve on the randomized policy's two steady-state
// workload shapes (n = 4096, k = 256, ell = 2, Zipf(0.8), uniform level
// mix, 20,000 requests; seeded like the serve benchmark's seed 1), with
// the solver attached through ClassCeilingInstance as the policy attaches
// it. Solving each segment in its own time keeps Newton's iterates off
// the rounding grid of an absolute clock, so no solve falls back to
// bisection; starting Newton at the Taylor bound's root leaves about two
// iterations per request. Solved on the absolute clock from the event
// horizon, the levels trace made 2,429 fallbacks and both traces over
// 3.2 iterations per request.
void ExpectCheapStoppingClockSolves(WeightModel model, double ratio,
                                    const std::string& label) {
  constexpr int32_t n = 4096;
  constexpr int64_t requests = 20'000;
  Instance inst(n, 256, 2, MakeWeights(n, 2, model, ratio, DeriveSeed(1, 1)));
  const Trace trace = GenZipf(std::move(inst), requests, 0.8,
                              LevelMix::UniformMix(2), DeriveSeed(1, 2));
  const ClassCeilingInstance stack(trace.instance);
  FractionalMlp frac;
  frac.Attach(stack.get());
  for (Time t = 0; t < trace.length(); ++t) {
    frac.Serve(t, trace.requests[static_cast<size_t>(t)]);
  }
  const double per_request = 1.0 / static_cast<double>(requests);
  EXPECT_EQ(frac.bisection_fallbacks(), 0) << label;
  EXPECT_LE(static_cast<double>(frac.newton_iterations()) * per_request, 2.5)
      << label;
  EXPECT_LE(static_cast<double>(frac.gain_evaluations()) * per_request, 4.0)
      << label;
  EXPECT_GT(frac.segments_solved(), requests / 2) << label;
}

TEST(FractionalFast, StoppingClockSolvesStayCheapOnLevelWeights) {
  ExpectCheapStoppingClockSolves(WeightModel::kGeometricLevels, 4.0,
                                 "geometric levels");
}

TEST(FractionalFast, StoppingClockSolvesStayCheapOnPerPageWeights) {
  ExpectCheapStoppingClockSolves(WeightModel::kZipfPages, 64.0, "zipf pages");
}

// ---- SolveStoppingClock unit tests -------------------------------------

TEST(FractionalFast, UlpAdjacentWeightsFormDistinctGroups) {
  // Regression for the group index keying. Weight groups are keyed on the
  // exact bit pattern of the cursor weight (std::bit_cast<uint64_t>, see
  // util/bitkey_index.h). Any truncating key — a float cast, a
  // fixed-point scale, std::hash<double> collapsing denormals — would
  // merge doubles one ulp apart into one group and silently mix their
  // mass/lp aggregates. Build three clusters of three ulp-adjacent
  // weights each: nine distinct doubles, three distinct floats.
  constexpr int32_t n = 9;
  constexpr int32_t k = 3;
  std::vector<std::vector<Cost>> w(static_cast<size_t>(n));
  for (int32_t p = 0; p < n; ++p) {
    double base = 1.5 + static_cast<double>(p / 3);
    for (int32_t ulp = 0; ulp < p % 3; ++ulp) {
      base = std::nextafter(base, 8.0);
    }
    // Distinct doubles that collide under float truncation: the test is
    // vacuous if this ever stops holding.
    ASSERT_EQ(static_cast<double>(static_cast<float>(base)),
              1.5 + static_cast<double>(p / 3));
    w[static_cast<size_t>(p)] = {base};
  }
  Instance inst(n, k, 1, std::move(w));
  // All nine pages cycle through a size-3 cache, so most are being raised
  // at any time and every weight eventually heads a group.
  const Trace trace = GenLoop(inst, 250, n, LevelMix::AllLowest(1));

  ExpectLockstepEquivalent(trace, {}, "ulp-adjacent");

  FractionalMlp fast;
  fast.Attach(trace.instance);
  int32_t max_groups = 0;
  for (Time t = 0; t < trace.length(); ++t) {
    fast.Serve(t, trace.requests[static_cast<size_t>(t)]);
    max_groups = std::max(max_groups, fast.num_weight_groups());
  }
  // Under any 3-way truncation collapse at most 3 groups could exist.
  // Groups are never retired, so after a full loop every one of the nine
  // distinct weights has headed its own group.
  EXPECT_EQ(max_groups, n);
}

TEST(StoppingClock, NewtonSolvesExponentialGain) {
  // g(s) = e^s - 1, need = 1 => s = log 2.
  auto g = [](double s, double* rate) {
    const double e = std::exp(s);
    if (rate != nullptr) *rate = e;
    return e - 1.0;
  };
  const double s_hi = 2.0;
  double rate_hi = 0.0;
  const double g_hi = g(s_hi, &rate_hi);
  StoppingClockStats stats;
  const double s = SolveStoppingClock(g, 1.0, s_hi, g_hi, rate_hi, &stats);
  EXPECT_NEAR(s, std::log(2.0), 1e-12);
  EXPECT_FALSE(stats.used_bisection);
  EXPECT_GT(stats.newton_iterations, 0);
  // Never undershoots: the returned clock satisfies the need.
  EXPECT_GE(g(s, nullptr), 1.0 - 1e-12);
}

TEST(StoppingClock, BisectionFallbackWhenNewtonStalls) {
  // A gain function whose reported rate is far too large: Newton creeps
  // and cannot converge in 50 iterations; the solver must fall back to
  // bisection instead of silently accepting the last iterate.
  auto g = [](double s, double* rate) {
    if (rate != nullptr) *rate = 1000.0;
    return s;
  };
  StoppingClockStats stats;
  const double s = SolveStoppingClock(g, 0.5, 1.0, 1.0, 1000.0, &stats);
  EXPECT_NEAR(s, 0.5, 1e-9);
  EXPECT_TRUE(stats.used_bisection);
  EXPECT_GE(g(s, nullptr), 0.5 - 1e-12);
}

TEST(StoppingClock, RecoversFromNewtonUndershoot) {
  // A too-small reported rate makes the first Newton step overshoot past
  // the root (g < need); the bracket must recover on [s, s_hi] and still
  // return a clock that meets the need.
  auto g = [](double s, double* rate) {
    if (rate != nullptr) *rate = 0.6;
    return s;
  };
  StoppingClockStats stats;
  const double s = SolveStoppingClock(g, 0.5, 1.0, 1.0, 0.6, &stats);
  EXPECT_TRUE(stats.used_bisection);
  EXPECT_GE(s, 0.5 - 1e-12);
  EXPECT_NEAR(s, 0.5, 1e-9);
}

}  // namespace
}  // namespace wmlp
