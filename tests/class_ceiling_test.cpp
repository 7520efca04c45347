// Class-ceiling weights (core/rounding_multilevel.h): the randomized
// policy runs its fractional stack on w^ = 2^ClassOf(w) while the cache
// and every reported cost keep w.
//
//   * Snap properties: every copy keeps its class, w / (1 + 1e-12) <= w^ <
//     2w, w^ is non-increasing in the level, 2-separated rows stay
//     2-separated below the clamp, dyadic scaling commutes with the snap,
//     and the top class clamps to the largest finite double.
//   * Attachment: ClassCeilingInstance hands back an instance whose weights
//     are all their own ceilings (powers of two, or the clamp) with no
//     copy; any other gets one flat copy.
//   * Decision identity: `randomized` on w makes exactly the cache
//     decisions of `randomized` on w^ (same seed, every engine), and its
//     cost at w is at most the cost at w^.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <string>
#include <vector>

#include "core/rounding_multilevel.h"
#include "core/weight_classes.h"
#include "engine/engine.h"
#include "engine/request_source.h"
#include "registry/policy_registry.h"
#include "trace/generators.h"
#include "util/rng.h"

namespace wmlp {
namespace {

// 1, exact powers of two, their ULP neighbours, weights just inside and
// just outside the 1e-12 class tolerance, 1e12, and the largest double.
std::vector<Cost> EdgeWeights() {
  std::vector<Cost> out = {1.0, 1.5, 3.0, 1e12, DBL_MAX,
                           std::nextafter(DBL_MAX, 0.0)};
  for (const int e : {0, 1, 2, 10, 40, 52, 53, 500, 1022, 1023}) {
    const Cost p = std::ldexp(1.0, e);
    for (const Cost w :
         {p, std::nextafter(p, HUGE_VAL), std::nextafter(p, -HUGE_VAL),
          p * (1.0 + 1e-12), std::nextafter(p * (1.0 + 1e-12), HUGE_VAL),
          p * (1.0 + 2e-12)}) {
      if (w >= 1.0 && w <= DBL_MAX) out.push_back(w);
    }
  }
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    out.push_back(std::exp2(1000.0 * rng.NextDouble()));
  }
  return out;
}

TEST(ClassCeiling, KeepsTheClassWithinAFactorOfTwo) {
  for (const Cost w : EdgeWeights()) {
    const Cost hat = WeightClasses::Ceiling(w);
    EXPECT_EQ(WeightClasses::ClassOf(hat), WeightClasses::ClassOf(w)) << w;
    EXPECT_LE(w / (1.0 + 1e-12), hat) << w;
    EXPECT_LT(hat, 2.0 * w) << w;
    EXPECT_TRUE(std::isfinite(hat)) << w;
    // A ceiling is a fixed point.
    EXPECT_EQ(WeightClasses::Ceiling(hat), hat) << w;
  }
}

TEST(ClassCeiling, ExactValuesAtTheEdges) {
  EXPECT_EQ(WeightClasses::Ceiling(1.0), 1.0);
  EXPECT_EQ(WeightClasses::Ceiling(std::nextafter(1.0, 2.0)), 1.0);
  EXPECT_EQ(WeightClasses::Ceiling(1.5), 2.0);
  EXPECT_EQ(WeightClasses::Ceiling(std::nextafter(4.0, 0.0)), 4.0);
  EXPECT_EQ(WeightClasses::Ceiling(4.0 * (1.0 + 1e-12)), 4.0);
  EXPECT_EQ(WeightClasses::Ceiling(4.0 * (1.0 + 2e-12)), 8.0);
  EXPECT_EQ(WeightClasses::Ceiling(1e12), std::ldexp(1.0, 40));
  EXPECT_EQ(WeightClasses::Ceiling(std::ldexp(1.0, 1023)),
            std::ldexp(1.0, 1023));
  // 2^1024 overflows: the top class clamps to the largest finite double.
  EXPECT_EQ(WeightClasses::ClassOf(DBL_MAX), 1024);
  EXPECT_EQ(WeightClasses::Ceiling(DBL_MAX), DBL_MAX);
  EXPECT_EQ(WeightClasses::Ceiling(std::nextafter(DBL_MAX, 0.0)), DBL_MAX);
}

TEST(ClassCeiling, CommutesWithDyadicScaling) {
  for (const Cost w : EdgeWeights()) {
    const Cost hat = WeightClasses::Ceiling(w);
    for (const int m : {1, 3, 10, 64}) {
      const Cost scale = std::ldexp(1.0, m);
      // Below the clamp both sides are exact powers of two.
      if (WeightClasses::ClassOf(w) + m > 1023) continue;
      EXPECT_EQ(WeightClasses::Ceiling(scale * w), scale * hat)
          << w << " * 2^" << m;
    }
  }
}

Instance RandomInstance(uint64_t seed, int32_t n, int32_t ell,
                        bool two_separated) {
  Rng rng(seed);
  std::vector<std::vector<Cost>> weights(static_cast<size_t>(n));
  for (auto& row : weights) {
    Cost w = std::exp2(5.0 + 35.0 * rng.NextDouble());
    for (int32_t i = ell; i >= 1; --i) {
      row.insert(row.begin(), w);
      const Cost step = two_separated ? 2.0 + 6.0 * rng.NextDouble()
                                      : 1.0 + 3.0 * rng.NextDouble();
      w *= step;
    }
  }
  return Instance(n, 2, ell, std::move(weights));
}

TEST(ClassCeiling, NonIncreasingInTheLevelAndTwoSeparationKept) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    for (const bool separated : {false, true}) {
      const Instance inst = RandomInstance(seed, 30, 4, separated);
      const ClassCeilingInstance ceiling(inst);
      const Instance& hat = ceiling.get();
      // A ceiling instance is its own ceiling.
      EXPECT_EQ(&ClassCeilingInstance(hat).get(), &hat);
      for (PageId p = 0; p < inst.num_pages(); ++p) {
        for (Level i = 1; i <= inst.num_levels(); ++i) {
          EXPECT_EQ(hat.weight(p, i),
                    WeightClasses::Ceiling(inst.weight(p, i)));
          if (i > 1) {
            EXPECT_LE(hat.weight(p, i), hat.weight(p, i - 1));
          }
        }
      }
      EXPECT_EQ(inst.levels_two_separated(), separated);
      if (separated) {
        EXPECT_TRUE(hat.levels_two_separated()) << seed;
      }
    }
  }
  // The Section 4 preprocessing's output stays 2-separated too.
  const Instance merged =
      RandomInstance(99, 40, 5, false).MergeLevels().instance;
  ASSERT_TRUE(merged.levels_two_separated());
  EXPECT_TRUE(ClassCeilingInstance(merged).get().levels_two_separated());
}

TEST(ClassCeiling, TwoSeparationStopsAtTheClamp) {
  // The one exception: 2^1023 doubled is 2^1024, above the clamp.
  const Instance top(1, 1, 2, {{DBL_MAX, 1.5 * std::ldexp(1.0, 1022)}});
  ASSERT_TRUE(top.levels_two_separated());
  const ClassCeilingInstance ceiling(top);
  const Instance& hat = ceiling.get();
  EXPECT_EQ(hat.weight(0, 1), DBL_MAX);
  EXPECT_EQ(hat.weight(0, 2), std::ldexp(1.0, 1023));
  EXPECT_FALSE(hat.levels_two_separated());
}

// True if ClassCeilingInstance hands back `inst` itself, with no copy.
bool AttachesAsGiven(const Instance& inst) {
  const ClassCeilingInstance ceiling(inst);
  EXPECT_EQ(ceiling.get(), inst.MapWeights(WeightClasses::Ceiling));
  return &ceiling.get() == &inst;
}

TEST(ClassCeiling, CopiesOnlyWhenSomeWeightIsNotItsOwnCeiling) {
  EXPECT_TRUE(AttachesAsGiven(Instance(2, 1, 2, {{8.0, 2.0}, {4.0, 1.0}})));
  EXPECT_TRUE(AttachesAsGiven(Instance(1, 1, 1, {{std::ldexp(1.0, 1023)}})));
  EXPECT_TRUE(AttachesAsGiven(Instance::Uniform(4, 2)));
  // The clamp is its own ceiling too.
  EXPECT_TRUE(AttachesAsGiven(Instance(1, 1, 2, {{DBL_MAX, 4.0}})));
  EXPECT_FALSE(AttachesAsGiven(Instance(2, 1, 2, {{8.0, 2.0}, {3.0, 1.0}})));
  EXPECT_FALSE(
      AttachesAsGiven(Instance(1, 1, 1, {{std::nextafter(2.0, 4.0)}})));
  EXPECT_FALSE(AttachesAsGiven(
      Instance(1, 1, 1, {{std::nextafter(DBL_MAX, 0.0)}})));
  // Geometric level weights at ratio 4 are powers of two; per-page
  // weights are not.
  EXPECT_TRUE(AttachesAsGiven(Instance(
      16, 4, 2, MakeWeights(16, 2, WeightModel::kGeometricLevels, 4.0, 1))));
  EXPECT_FALSE(AttachesAsGiven(Instance(
      16, 4, 2, MakeWeights(16, 2, WeightModel::kZipfPages, 64.0, 1))));
}

TEST(Instance, MapWeightsKeepsTheShapeAndValidates) {
  const Instance inst(3, 2, 2, {{8.0, 3.0}, {5.0, 5.0}, {1.5, 1.0}});
  const Instance twice = inst.MapWeights([](Cost w) { return 2.0 * w; });
  EXPECT_EQ(twice.num_pages(), 3);
  EXPECT_EQ(twice.cache_size(), 2);
  EXPECT_EQ(twice.num_levels(), 2);
  EXPECT_EQ(twice.weight(0, 2), 6.0);
  EXPECT_EQ(twice.max_weight(), 16.0);
  EXPECT_EQ(twice.min_weight(), 2.0);
  EXPECT_DEATH(inst.MapWeights([](Cost w) { return 1.0 / w + 0.5; }),
               "weights must be");
}

// ---- Decision identity ----------------------------------------------------

struct Outcome {
  SimResult result;
  std::vector<int64_t> evictions_at;  // per request
  int64_t resets = 0;
};

Outcome RunSpec(const Trace& trace, const std::string& spec, uint64_t seed) {
  PolicyPtr policy = MakePolicyByName(spec, seed);
  EXPECT_NE(policy, nullptr) << spec;
  TraceSource source(trace);
  Engine engine(source, *policy);
  Outcome run;
  int64_t before = 0;
  while (engine.Step()) {
    const int64_t now = engine.result().evictions;
    run.evictions_at.push_back(now - before);
    before = now;
  }
  run.result = engine.result();
  const auto* rounded = dynamic_cast<const RoundedMultiLevel*>(policy.get());
  EXPECT_NE(rounded, nullptr) << spec;
  if (rounded != nullptr) run.resets = rounded->reset_evictions();
  return run;
}

class DecisionIdentity : public ::testing::TestWithParam<std::string> {};

TEST_P(DecisionIdentity, RunOnWDecidesAsRunOnTheCeiling) {
  // Low beta and a small cache make the reset pass fire, the Algorithm 2
  // fallback victim included, so every decision path is compared.
  const std::string engine = "engine=" + GetParam();
  int64_t resets = 0;
  for (const WeightModel model :
       {WeightModel::kLogUniform, WeightModel::kZipfPages}) {
    for (const int32_t ell : {1, 2, 3}) {
      for (uint64_t seed = 1; seed <= 6; ++seed) {
        const Instance inst(
            12, 3, ell, MakeWeights(12, ell, model, 40.0, seed));
        const Trace trace =
            GenZipf(inst, 400, 0.6,
                    ell == 1 ? LevelMix::AllLowest(1)
                             : LevelMix::UniformMix(ell),
                    seed + 10);
        // Snapped here, not through ClassCeilingInstance, so the
        // comparison does not lean on the code it checks.
        const Trace ceiling{inst.MapWeights(WeightClasses::Ceiling),
                            trace.requests};
        for (const std::string beta : {"beta=1.2", "beta=0"}) {
          const std::string spec = "randomized:" + engine + "," + beta;
          const Outcome snapped = RunSpec(trace, spec, seed);
          const Outcome hat = RunSpec(ceiling, spec, seed);
          const std::string where = spec + " model " +
                                    std::to_string(static_cast<int>(model)) +
                                    " ell " + std::to_string(ell) +
                                    " seed " + std::to_string(seed);
          EXPECT_EQ(snapped.result.hits, hat.result.hits) << where;
          EXPECT_EQ(snapped.result.misses, hat.result.misses) << where;
          EXPECT_EQ(snapped.result.fetches, hat.result.fetches) << where;
          EXPECT_EQ(snapped.result.evictions, hat.result.evictions)
              << where;
          EXPECT_EQ(snapped.resets, hat.resets) << where;
          EXPECT_EQ(snapped.evictions_at, hat.evictions_at) << where;
          // Same evictions, each charged w <= w^.
          EXPECT_LE(snapped.result.eviction_cost, hat.result.eviction_cost)
              << where;
          resets += snapped.resets;
        }
      }
    }
  }
  EXPECT_GT(resets, 0);
}

INSTANTIATE_TEST_SUITE_P(Engines, DecisionIdentity,
                         ::testing::Values("multiplicative", "reference",
                                           "linear"));

}  // namespace
}  // namespace wmlp
