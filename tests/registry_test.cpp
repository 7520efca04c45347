#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/step_observers.h"
#include "registry/policy_registry.h"
#include "sim/simulator.h"
#include "trace/generators.h"

namespace wmlp {
namespace {

class RegistrySuite : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistrySuite, ConstructsAndRuns) {
  PolicyPtr p = MakePolicyByName(GetParam(), 3);
  ASSERT_NE(p, nullptr) << GetParam();
  Instance inst = Instance::Uniform(16, 4);
  const Trace t = GenZipf(inst, 300, 0.8, LevelMix::AllLowest(1), 1);
  const SimResult res = Simulate(t, *p);
  EXPECT_GT(res.misses, 0);
}

TEST_P(RegistrySuite, ServesAMultiLevelSmokeTraceThroughTheEngine) {
  PolicyPtr p = MakePolicyByName(GetParam(), 3);
  ASSERT_NE(p, nullptr) << GetParam();
  // marking is single-level-only (CHECKs ell == 1 at Attach).
  const int32_t ell = GetParam() == "marking" ? 1 : 2;
  Instance inst(12, 4, ell,
                MakeWeights(12, ell, WeightModel::kGeometricLevels, 4.0, 1));
  TraceSource source(GenZipf(inst, 200, 0.7, LevelMix::UniformMix(ell), 2));
  CostMeter meter;
  EngineOptions opts;
  opts.observer = &meter;
  Engine engine(source, *p, opts);
  const SimResult res = engine.Run();
  EXPECT_EQ(res.hits + res.misses, 200);
  EXPECT_EQ(meter.steps(), 200);
  EXPECT_GT(res.misses, 0);
}

INSTANTIATE_TEST_SUITE_P(AllNames, RegistrySuite,
                         ::testing::ValuesIn(KnownPolicyNames()),
                         [](const auto& suite_info) {
                           std::string name = suite_info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(Registry, UnknownNameReturnsNull) {
  EXPECT_EQ(MakePolicyByName("does-not-exist", 1), nullptr);
  EXPECT_EQ(MakePolicyByName("", 1), nullptr);
}

TEST(Registry, RandomizedAlias) {
  // The bare name is the spec with an empty list: same policy, same run.
  Instance inst(10, 3, 2,
                MakeWeights(10, 2, WeightModel::kLogUniform, 16.0, 1));
  const Trace t = GenZipf(inst, 120, 0.7, LevelMix::UniformMix(2), 2);
  PolicyPtr bare = MakePolicyByName("randomized", 5);
  PolicyPtr spec = MakePolicyByName("randomized:", 5);
  ASSERT_NE(bare, nullptr);
  ASSERT_NE(spec, nullptr);
  const SimResult a = Simulate(t, *bare);
  const SimResult b = Simulate(t, *spec);
  EXPECT_EQ(a.eviction_cost, b.eviction_cost);
  EXPECT_EQ(a.evictions, b.evictions);
}

TEST(Registry, ParameterizedRandomized) {
  PolicyPtr p = MakePolicyByName("randomized:beta=2.0,eta=0.1", 1);
  ASSERT_NE(p, nullptr);
  Instance inst = Instance::Uniform(8, 4);
  Trace t{inst, {{0, 1}, {1, 1}, {2, 1}}};
  const SimResult res = Simulate(t, *p);
  EXPECT_EQ(res.misses, 3);
}

TEST(Registry, ParameterizedRejectsUnknownKeys) {
  EXPECT_EQ(MakePolicyByName("randomized:bogus=1,beta=3", 1), nullptr);
  EXPECT_EQ(MakePolicyByName("randomized:beta=3,Beta=2", 1), nullptr);
}

TEST(Registry, ParameterizedRandomizedRejectsBadValues) {
  // Every malformed spec is rejected, never silently reinterpreted.
  for (const char* spec :
       {"randomized:beta", "randomized:beta=", "randomized:beta=2x",
        "randomized:beta=nan", "randomized:beta=inf", "randomized:beta=-1",
        "randomized:eta=-0.5", "randomized:eta=1e999", "randomized:delta=2",
        "randomized:engine=bogus", "randomized:engine=", "randomized:engine",
        "randomized:engine=Linear", "randomized:,beta=2",
        "randomized:beta=2,,eta=1", "randomized:beta= 2",
        "randomized:beta=2,", "randomized:eta=2", "randomized:delta=1e-12",
        "randomized:beta=0x"}) {
    EXPECT_EQ(MakePolicyByName(spec, 1), nullptr) << spec;
  }
}

TEST(Registry, ParameterizedRandomizedAcceptsEveryDocumentedKey) {
  Instance inst(8, 3, 2,
                MakeWeights(8, 2, WeightModel::kGeometricLevels, 4.0, 2));
  const Trace t = GenZipf(inst, 80, 0.6, LevelMix::UniformMix(2), 3);
  for (const char* spec :
       {"randomized:", "randomized:beta=0", "randomized:beta=2.5e0",
        "randomized:eta=0.125", "randomized:delta=0", "randomized:delta=-1",
        "randomized:delta=0.25", "randomized:engine=multiplicative",
        "randomized:engine=reference", "randomized:engine=linear",
        "randomized:beta=3,eta=0.5,delta=-1,engine=reference"}) {
    PolicyPtr p = MakePolicyByName(spec, 1);
    ASSERT_NE(p, nullptr) << spec;
    const SimResult res = Simulate(t, *p);
    EXPECT_EQ(res.hits + res.misses, 80) << spec;
  }
}

TEST(Registry, ParameterizedEngineSelectsTheSolver) {
  // engine= is honored, not mapped to the default: the reference and
  // linear stacks report their own solver names.
  const Instance inst = Instance::Uniform(4, 2);
  const Trace t{inst, {{0, 1}}};
  PolicyPtr ref = MakePolicyByName("randomized:engine=reference", 1);
  PolicyPtr lin = MakePolicyByName("randomized:engine=linear", 1);
  ASSERT_NE(ref, nullptr);
  ASSERT_NE(lin, nullptr);
  Simulate(t, *ref);
  Simulate(t, *lin);
  EXPECT_NE(ref->name().find("reference"), std::string::npos);
  EXPECT_NE(lin->name().find("linear"), std::string::npos);
}

TEST(Registry, KnownNamesRoundTripThroughMakePolicyByName) {
  for (const auto& name : KnownPolicyNames()) {
    PolicyPtr p = MakePolicyByName(name, 7);
    ASSERT_NE(p, nullptr) << name;
    // A constructed policy serves a smoke trace without violating the
    // engine's feasibility checks (strict mode aborts otherwise).
    Instance inst = Instance::Uniform(8, 3);
    const Trace t = GenZipf(inst, 60, 0.5, LevelMix::AllLowest(1), 4);
    const SimResult res = Simulate(t, *p);
    EXPECT_EQ(res.hits + res.misses, 60) << name;
  }
}

TEST(Registry, LinearEngineVariantIsRegistered) {
  PolicyPtr p = MakePolicyByName("randomized:engine=linear", 1);
  ASSERT_NE(p, nullptr);
  const auto names = KnownPolicyNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "randomized:engine=linear"),
            names.end());
  // The previously unreachable baselines are reachable by name too.
  for (const auto& name : {"clock", "sieve", "2q"}) {
    EXPECT_NE(MakePolicyByName(name, 1), nullptr) << name;
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
  }
}

// Both parameterized policies share one grammar, so each malformed shape
// is rejected under either prefix, around items that are valid alone, and
// the documented forms are accepted in any key order.
TEST(Registry, BothSpecGrammarsRejectTheSameShapes) {
  const std::vector<std::array<std::string, 3>> grammars = {
      {"randomized:", "beta=1", "beta=3,eta=0.5,delta=-1,engine=reference"},
      {"predictive:", "lambda=0.5",
       "lambda=0.5,alpha=0.25,noise=swap,eta=0.25,horizon=7"}};
  for (const auto& [p, other, full] : grammars) {
    for (const std::string& spec :
         {p.substr(0, p.size() - 1), p, p + "eta=0", p + other,
          p + "eta=0," + other, p + other + ",eta=0", p + full}) {
      EXPECT_NE(MakePolicyByName(spec, 1), nullptr) << spec;
    }
    for (const std::string& spec :
         {p + "eta=0,", p + ",eta=0", p + "eta=0,," + other, p + "eta= 0",
          p + "eta=0,eta=0", p + "eta=0," + other + ",eta=0", p + "bogus=1",
          p + "Eta=0", p + "eta", p + "eta=", p + "=0", p + "eta=nan",
          p + "eta=inf", p + "eta=0x"}) {
      EXPECT_EQ(MakePolicyByName(spec, 1), nullptr) << spec;
    }
  }
  EXPECT_EQ(MakePolicyByName("predictive:lambda=0.5,", 1), nullptr);
  EXPECT_EQ(MakePolicyByName("predictive:lambda= 0.5", 1), nullptr);
  EXPECT_EQ(MakePolicyByName("randomized:beta=1,beta=2", 1), nullptr);
}

TEST(Registry, ParsePredictiveSpecReadsTheSameOptions) {
  predict::PredictiveOptions options;
  ASSERT_TRUE(ParsePredictiveSpec(
      "predictive:lambda=0.5,alpha=0.125,noise=swap,eta=0.25,horizon=9",
      &options));
  EXPECT_EQ(options.lambda, 0.5);
  EXPECT_EQ(options.ewma_alpha, 0.125);
  EXPECT_EQ(options.noise, predict::NoiseKind::kSwap);
  EXPECT_EQ(options.eta, 0.25);
  EXPECT_EQ(options.horizon, 9);
  predict::PredictiveOptions defaults;
  EXPECT_TRUE(ParsePredictiveSpec("predictive", &defaults));
  EXPECT_EQ(defaults.lambda, predict::PredictiveOptions().lambda);
  EXPECT_FALSE(ParsePredictiveSpec("randomized", &defaults));
  EXPECT_FALSE(ParsePredictiveSpec("predictivex", &defaults));
  EXPECT_FALSE(ParsePredictiveSpec("predictive:lambda=0.5,", &defaults));
}

}  // namespace
}  // namespace wmlp
