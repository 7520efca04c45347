#include <gtest/gtest.h>

#include <algorithm>

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
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(Registry, UnknownNameReturnsNull) {
  EXPECT_EQ(MakePolicyByName("does-not-exist", 1), nullptr);
  EXPECT_EQ(MakePolicyByName("", 1), nullptr);
}

TEST(Registry, RandomizedAlias) {
  EXPECT_NE(MakePolicyByName("fractional-rounded", 1), nullptr);
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
  PolicyPtr p = MakePolicyByName("fractional-rounded-linear", 1);
  ASSERT_NE(p, nullptr);
  const auto names = KnownPolicyNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "fractional-rounded-linear"),
            names.end());
  // The previously unreachable baselines are reachable by name too.
  for (const auto& name : {"clock", "sieve", "2q"}) {
    EXPECT_NE(MakePolicyByName(name, 1), nullptr) << name;
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
  }
}

}  // namespace
}  // namespace wmlp
