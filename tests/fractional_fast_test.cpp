// Randomized equivalence suite: the output-sensitive FractionalMlp must
// reproduce the FractionalMlpReference trajectory — full u state and both
// cost meters — to 1e-9 after every step, across instance shapes, weight
// models, trace generators, and the E8 eta-ablation values; its watches
// must fire on the reference's requests. Plus unit tests for the shared
// stopping-clock root finder and a regression test on near-degenerate
// weight spreads.
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
#include "telemetry/telemetry.h"
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
// trajectories that agree to 1e-9, so those pages are left out. The fast
// solver is the caller's, so its counters can be read afterwards.
int64_t ExpectWatchesFireInLockstep(const Trace& trace, uint64_t seed,
                                    FractionalMlp& fast) {
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

int64_t ExpectWatchesFireInLockstep(const Trace& trace, uint64_t seed) {
  FractionalMlp fast;
  return ExpectWatchesFireInLockstep(trace, seed, fast);
}

// Long heavy-weight traces that renormalize the clock many times over,
// each time with every active page's cap event listed: three with
// per-page weights, two with three level-determined weight groups whose
// cached event times all shift.
std::vector<Trace> ClockRenormalizationTraces() {
  std::vector<Trace> traces;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    Instance inst(24, 6, 2,
                  MakeWeights(24, 2, WeightModel::kLogUniform, 1e3, seed));
    traces.push_back(
        GenZipf(inst, 3000, 0.6, LevelMix::UniformMix(2), seed + 7));
  }
  for (uint64_t seed = 0; seed < 2; ++seed) {
    Instance inst(24, 6, 3,
                  MakeWeights(24, 3, WeightModel::kGeometricLevels, 1e3,
                              seed));
    traces.push_back(
        GenZipf(inst, 3000, 0.6, LevelMix::UniformMix(3), seed + 11));
  }
  return traces;
}

TEST(FractionalFast, WatchesFireOnTheSameRequestAsReference) {
  // The fast solver fires watches on its groups' factors, the reference on
  // its change list; both must fire on the same request.
  int64_t fired_total = 0;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    fired_total += ExpectWatchesFireInLockstep(MakeRandomTrace(seed), seed);
  }
  EXPECT_GT(fired_total, 500);
}

TEST(FractionalFast, WatchesSurviveClockRenormalization) {
  // Heavy weights advance the water clock past the renormalization
  // threshold many times over a long trace; watch keys are relative to
  // their group's base clock, so they need no shift.
  const std::vector<Trace> traces = ClockRenormalizationTraces();
  int64_t fired_total = 0;
  for (size_t i = 0; i < traces.size(); ++i) {
    fired_total += ExpectWatchesFireInLockstep(traces[i], i);
  }
  EXPECT_GT(fired_total, 1000);
}

// Clock renormalizations so far in this process.
uint64_t ClockRenormalizations() {
  for (const telemetry::MetricSnapshot& m :
       telemetry::Registry::Get().Collect()) {
    if (m.name == "wmlp_fractional_clock_renorm_total") return m.counter_value;
  }
  return 0;
}

TEST(FractionalFast, EventsSurviveClockRenormalization) {
  // The same traces in full-state lockstep: each renormalization shifts
  // the groups' cached event times, and the next horizon must still be
  // the reference's.
  const std::vector<Trace> traces = ClockRenormalizationTraces();
  for (size_t i = 0; i < traces.size(); ++i) {
    const uint64_t before = ClockRenormalizations();
    ExpectLockstepEquivalent(traces[i], {}, "trace " + std::to_string(i));
    if (HasFatalFailure()) return;
    EXPECT_GT(ClockRenormalizations(), before + 10) << "trace " << i;
  }
}

TEST(FractionalFast, EqualKeysInAGroupDepartTogether) {
  // Requests that leave the clock where it was give the pages they serve
  // equal cap-event keys: here the cache's first k pages, all served at
  // the lowest level into one weight group. Nothing requests them again,
  // so they rise together and reach their caps in one Serve: one event at
  // the horizon, the rest snapped, in the order they were listed.
  for (const int32_t ell : {1, 2}) {
    for (const int32_t k : {4, 16}) {
      const int32_t n = 3 * k;
      Trace trace{Instance(n, k, ell,
                           MakeWeights(n, ell, WeightModel::kGeometricLevels,
                                       4.0, 31)),
                  {}};
      for (PageId p = 0; p < k; ++p) trace.requests.push_back({p, ell});
      for (int32_t r = 0; r < 6 * n; ++r) {
        trace.requests.push_back({k + r % (n - k), 1 + r % ell});
      }
      const std::string label =
          "ell=" + std::to_string(ell) + " k=" + std::to_string(k);
      ExpectLockstepEquivalent(trace, {}, label);
      if (HasFatalFailure()) return;
      FractionalMlp fast;
      fast.Attach(trace.instance);
      Time t = 0;
      while (t < trace.length() && fast.U(0, ell) < 1.0) {
        fast.Serve(t, trace.requests[static_cast<size_t>(t)]);
        ++t;
      }
      ASSERT_LT(t, trace.length()) << label << ": page 0 never departed";
      for (PageId p = 1; p < k; ++p) {
        EXPECT_EQ(fast.U(p, ell), 1.0) << label << " page " << p;
      }
    }
  }
}

TEST(FractionalFast, FreshKeysPastTheOldWatchCeilingMatchReference) {
  // k = 2^13: a page served into an empty row keys its cap event at
  // e1 (1 + eta) / eta = e1 (k + 1), above 2^13. Sixteen light pages share
  // eight cache slots' worth of churn while k - 8 heavy ones barely move,
  // so the light group's earliest event is always such a key, and it
  // fires about once per request.
  constexpr int32_t k = 1 << 13;
  constexpr int32_t n = k + 8;
  constexpr int32_t light = 16;
  std::vector<std::vector<Cost>> w(static_cast<size_t>(n), {1e6});
  for (PageId p = 0; p < light; ++p) w[static_cast<size_t>(p)] = {1.0};
  Trace trace{Instance(n, k, 1, std::move(w)), {}};
  for (PageId p = light; p < n; ++p) trace.requests.push_back({p, 1});
  for (int32_t r = 0; r < 8 + 200; ++r) {
    trace.requests.push_back({r % light, 1});
  }
  ExpectLockstepEquivalent(trace, {}, "k=2^13");
  FractionalMlp fast;
  fast.Attach(trace.instance);
  for (Time t = 0; t < trace.length(); ++t) {
    fast.Serve(t, trace.requests[static_cast<size_t>(t)]);
  }
  EXPECT_GT(fast.events_processed(), 150);
}

TEST(FractionalFast, GroupThatEmptiesAndReactivatesMatchesReference) {
  // Two level-determined weight groups. A loop of level-1 requests gives
  // every page its cursor at level 1, so the level-2 group empties while
  // the level-1 group holds every event; level-2 requests then bring it
  // back on a fresh slot, several times over.
  constexpr int32_t n = 32;
  Trace trace{Instance(n, 8, 2,
                       MakeWeights(n, 2, WeightModel::kGeometricLevels, 4.0,
                                   41)),
              {}};
  std::vector<Time> emptied;
  Rng rng(42);
  for (int32_t round = 0; round < 4; ++round) {
    for (int32_t r = 0; r < 4 * n; ++r) {
      trace.requests.push_back(
          {static_cast<PageId>(rng.NextBounded(n)), 2});
    }
    for (PageId p = 0; p < n; ++p) trace.requests.push_back({p, 1});
    emptied.push_back(trace.length());
  }
  ExpectLockstepEquivalent(trace, {}, "empty and reactivate");
  // At each loop's end no page holds mass at level 2 alone.
  FractionalMlp fast;
  fast.Attach(trace.instance);
  Time t = 0;
  for (const Time end : emptied) {
    for (; t < end; ++t) fast.Serve(t, trace.requests[static_cast<size_t>(t)]);
    for (PageId p = 0; p < n; ++p) {
      EXPECT_GE(fast.U(p, 2), fast.U(p, 1) - 1e-12) << "page " << p;
    }
  }
  EXPECT_EQ(fast.num_weight_groups(), 2);
}

TEST(FractionalFast, WatchesSurviveRebuildsRefreshesAndGroupMoves) {
  // Level-determined weights put each level in its own group, so a cap
  // event moves a watched page's cursor to another group. Two groups of a
  // dozen members rebuild every few dozen removals (re-keying every listed
  // watch), and thousands of segments cross the exact-e1 refresh cadence,
  // all with a watch on nearly every cached page.
  Instance inst(32, 8, 2,
                MakeWeights(32, 2, WeightModel::kGeometricLevels, 4.0, 21));
  const Trace trace =
      GenZipf(inst, 4000, 0.6, LevelMix::UniformMix(2), 22);
  FractionalMlp fast;
  EXPECT_GT(ExpectWatchesFireInLockstep(trace, 23, fast), 1000);
  EXPECT_EQ(fast.num_weight_groups(), 2);
  EXPECT_GT(fast.group_rebuilds(), 10);
  EXPECT_GT(fast.e1_refreshes(), 1);
  EXPECT_GT(fast.events_processed(), 1000);
}

TEST(FractionalFast, WatchAtItsValueWaitsForTheNextRise) {
  // Pages 0 and 1 hold half a unit each after request 2. A watch armed at
  // a page's live value, or below it, fires on the page's next rise: not
  // in a Serve that leaves the clock where it was (the repeated request
  // to page 2), but in the next one that evicts (page 3).
  const Instance inst = Instance::Uniform(4, 2);
  FractionalMlp fast;
  FractionalMlpReference ref;
  fast.Attach(inst);
  ref.Attach(inst);
  Time t = 0;
  for (const PageId p : {0, 1, 2}) {
    fast.Serve(t, Request{p, 1});
    ref.Serve(t, Request{p, 1});
    ++t;
  }
  ASSERT_NEAR(fast.U(0, 1), 0.5, 1e-12);
  ASSERT_NEAR(fast.U(1, 1), 0.5, 1e-12);
  for (FractionalPolicy* frac : {static_cast<FractionalPolicy*>(&fast),
                                 static_cast<FractionalPolicy*>(&ref)}) {
    frac->ArmWatch(0, 1, fast.U(0, 1));
    frac->ArmWatch(1, 1, 0.25);
  }
  const int64_t segments = fast.segments_solved();
  fast.Serve(t, Request{2, 1});
  ref.Serve(t, Request{2, 1});
  ++t;
  EXPECT_EQ(fast.segments_solved(), segments);  // the clock stayed put
  EXPECT_TRUE(fast.fired().empty());
  EXPECT_TRUE(ref.fired().empty());
  fast.Serve(t, Request{3, 1});
  ref.Serve(t, Request{3, 1});
  const std::vector<PageId> both = {0, 1};
  EXPECT_EQ(std::vector<PageId>(fast.fired().begin(), fast.fired().end()),
            both);
  EXPECT_EQ(std::vector<PageId>(ref.fired().begin(), ref.fired().end()),
            both);
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
