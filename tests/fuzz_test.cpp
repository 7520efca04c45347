// Differential fuzzing: random instance/workload configurations pushed
// through the whole stack with every invariant checker armed (strict
// simulator + paranoid rounding), cross-checked against exact optima
// where tractable. Any regression in any module tends to surface here
// first.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "baselines/landlord.h"
#include "baselines/lru.h"
#include "core/randomized.h"
#include "core/rounding_multilevel.h"
#include "core/waterfill.h"
#include "offline/bounds.h"
#include "offline/multilevel_dp.h"
#include "sim/simulator.h"
#include "trace/generators.h"
#include "util/rng.h"

namespace wmlp {
namespace {

struct FuzzConfig {
  Instance instance;
  Trace trace;
};

FuzzConfig RandomConfig(Rng& rng) {
  const int32_t n = 3 + static_cast<int32_t>(rng.NextBounded(14));
  const int32_t k =
      1 + static_cast<int32_t>(rng.NextBounded(
              static_cast<uint64_t>(std::max(1, n - 1))));
  const int32_t ell = 1 + static_cast<int32_t>(rng.NextBounded(4));
  const WeightModel model = static_cast<WeightModel>(rng.NextBounded(4));
  const double ratio = 1.0 + rng.NextDouble() * 30.0;
  Instance inst(n, k, ell, MakeWeights(n, ell, model, ratio, rng.Next()));

  const int64_t T = 30 + static_cast<int64_t>(rng.NextBounded(220));
  const double alpha = rng.NextDouble() * 1.2;
  LevelMix mix = ell == 1 ? LevelMix::AllLowest(1)
                          : LevelMix::UniformMix(ell);
  if (ell > 1 && rng.NextBernoulli(0.5)) {
    mix = LevelMix::Geometric(ell, 0.3 + rng.NextDouble() * 0.6,
                              rng.NextBernoulli(0.5));
  }
  Trace trace{inst, {}};
  switch (rng.NextBounded(4)) {
    case 0:
      trace = GenZipf(inst, T, alpha, mix, rng.Next());
      break;
    case 1:
      trace = GenLoop(inst, T,
                      1 + static_cast<int32_t>(rng.NextBounded(
                              static_cast<uint64_t>(n))),
                      mix);
      break;
    case 2:
      trace = GenPhases(inst, T,
                        1 + static_cast<int32_t>(rng.NextBounded(
                                static_cast<uint64_t>(n))),
                        10 + static_cast<int64_t>(rng.NextBounded(50)),
                        alpha, mix, rng.Next());
      break;
    default:
      trace = GenMarkov(inst, T, rng.NextDouble(), 4, alpha, mix,
                        rng.Next());
      break;
  }
  return FuzzConfig{std::move(inst), std::move(trace)};
}

TEST(Fuzz, FullStackInvariantSweep) {
  Rng rng(0xF0CCAC1AULL);
  for (int round = 0; round < 30; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const FuzzConfig cfg = RandomConfig(rng);
    const Instance& inst = cfg.trace.instance;

    // Deterministic policies under the strict simulator.
    LruPolicy lru;
    LandlordPolicy landlord;
    WaterfillPolicy waterfill;
    const Cost lru_cost = Simulate(cfg.trace, lru).eviction_cost;
    const Cost ll_cost = Simulate(cfg.trace, landlord).eviction_cost;
    const Cost wf_cost = Simulate(cfg.trace, waterfill).eviction_cost;

    // Randomized with the paranoid multi-level checker.
    MultiLevelRoundingOptions ropts;
    ropts.paranoid = true;
    ropts.beta = rng.NextBernoulli(0.5) ? 1.0 + rng.NextDouble() * 8.0 : 0.0;
    RandomizedOptions stack_opts;
    if (rng.NextBernoulli(0.3)) {
      stack_opts.engine = FractionalEngine::kLinear;
    }
    if (rng.NextBernoulli(0.3)) stack_opts.delta = -1.0;  // no grid
    RoundedMultiLevel randomized(MakeFractionalStack(stack_opts),
                                 rng.Next(), ropts);
    const Cost rnd_cost = Simulate(cfg.trace, randomized).eviction_cost;

    // Exact optimum when tractable: nothing may beat it.
    const double states = std::pow(inst.num_levels() + 1.0,
                                   static_cast<double>(inst.num_pages()));
    if (states <= 60000.0) {
      const Cost opt = MultiLevelOptimal(cfg.trace);
      EXPECT_GE(lru_cost, opt - 1e-6);
      EXPECT_GE(ll_cost, opt - 1e-6);
      EXPECT_GE(wf_cost, opt - 1e-6);
      EXPECT_GE(rnd_cost, opt - 1e-6);
      // And the bound sandwich must contain it.
      const OfflineBounds b = ComputeOfflineBounds(cfg.trace);
      EXPECT_LE(b.lower, opt + 1e-6);
      EXPECT_GE(b.upper, opt - 1e-6);
    } else {
      const OfflineBounds b = ComputeOfflineBounds(cfg.trace);
      EXPECT_GE(lru_cost, b.lower - 1e-6);
      EXPECT_GE(rnd_cost, b.lower - 1e-6);
    }
  }
}

TEST(Fuzz, SeedSweepIsDeterministicAcrossConfigs) {
  // A seed sweep builds one direct policy per seed: the same seed must
  // reproduce the same run bit for bit, on every fuzzed configuration.
  Rng rng(0xBEEF);
  for (int round = 0; round < 10; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const FuzzConfig cfg = RandomConfig(rng);
    const uint64_t seed = rng.Next();
    PolicyPtr first = MakeRandomizedPolicy(seed);
    PolicyPtr second = MakeRandomizedPolicy(seed);
    const SimResult a = Simulate(cfg.trace, *first);
    const SimResult b = Simulate(cfg.trace, *second);
    EXPECT_EQ(a.eviction_cost, b.eviction_cost);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.fetches, b.fetches);
  }
}

}  // namespace
}  // namespace wmlp
