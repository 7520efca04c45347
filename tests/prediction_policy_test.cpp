// Consistency/robustness pins for the prediction-augmented policy
// (docs/ARCHITECTURE.md §14) and the metamorphic battery extended to every
// new policy family:
//
//   * Perfect predictions (lambda = 1, zero-noise oracle): cost <= the best
//     known-weight online policy on the E8 trace family within a documented
//     slack (the FTP expert is weighted Belady on exact arrival times).
//   * Adversarial predictions: the combiner's cost stays within its
//     robustness factor of the waterfill expert — and lambda = 0 is
//     bitwise waterfill no matter how corrupted the predictor is.
//   * Graceful degradation: cost is monotone-ish in the corruption level,
//     with the endpoints pinned hard.
//   * Dyadic weight-scaling invariance for oracle-primed policies (the
//     registry-constructed forms are covered by metamorphic_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/request_source.h"
#include "predict/noise.h"
#include "predict/oracle.h"
#include "predict/predictive_policy.h"
#include "predict/unknown_weights.h"
#include "registry/policy_registry.h"
#include "trace/generators.h"
#include "util/rng.h"

namespace wmlp {
namespace {

using predict::FollowPredictionPolicy;
using predict::MakePredictivePolicy;
using predict::NoiseKind;
using predict::OraclePredictor;
using predict::Predictor;
using predict::PredictiveOptions;
using predict::PredictorPtr;

// The E8 trace family (bench_e8_eta_ablation): zipf page popularity over
// log-uniform weights, plus the loop and phase stressors.
std::vector<Trace> E8Family(uint64_t seed) {
  std::vector<Trace> traces;
  {
    Instance inst(64, 16, 1, MakeWeights(64, 1, WeightModel::kLogUniform,
                                         16.0, DeriveSeed(seed, 0)));
    traces.push_back(GenZipf(std::move(inst), 4000, 0.8,
                             LevelMix::AllLowest(1), DeriveSeed(seed, 1)));
  }
  {
    Instance inst(32, 8, 1, MakeWeights(32, 1, WeightModel::kZipfPages, 8.0,
                                        DeriveSeed(seed, 2)));
    traces.push_back(GenLoop(std::move(inst), 3000, 9, LevelMix::AllLowest(1)));
  }
  {
    Instance inst(48, 12, 2, MakeWeights(48, 2, WeightModel::kGeometricLevels,
                                         4.0, DeriveSeed(seed, 3)));
    traces.push_back(GenPhases(std::move(inst), 4000, 16, 500, 0.9,
                               LevelMix::UniformMix(2), DeriveSeed(seed, 4)));
  }
  return traces;
}

Cost RunPolicy(const Trace& trace, PolicyPtr policy) {
  TraceSource source(trace);
  Engine engine(source, *policy);
  return engine.Run().eviction_cost;
}

Cost RunNamed(const Trace& trace, const std::string& name, uint64_t seed) {
  return RunPolicy(trace, MakePolicyByName(name, seed));
}

PolicyPtr OracleCombiner(const Trace& trace, double lambda, NoiseKind noise,
                         double eta, uint64_t seed) {
  PredictiveOptions options;
  options.lambda = lambda;
  options.noise = noise;
  options.eta = eta;
  std::string error;
  PolicyPtr policy = MakePredictivePolicy(
      seed, options, OraclePredictor::FromTrace(trace), &error);
  EXPECT_NE(policy, nullptr) << error;
  return policy;
}

// An adversarial predictor built for the tests: inverts the oracle's gap
// order around a horizon, so pages about to be requested look dead and
// vice versa — worst-case advice for FTP.
class InvertingPredictor final : public Predictor {
 public:
  explicit InvertingPredictor(PredictorPtr base, double horizon)
      : base_(std::move(base)), horizon_(horizon) {}

  void Attach(const Instance& instance) override { base_->Attach(instance); }

  double PredictNext(Time now, PageId p) const override {
    const double pred = base_->PredictNext(now, p);
    const double gap = pred - static_cast<double>(now);
    if (gap >= horizon_) return static_cast<double>(now) + 1.0;
    return static_cast<double>(now) + (horizon_ - gap) + 1.0;
  }

  std::unique_ptr<Predictor> Clone() const override {
    return std::make_unique<InvertingPredictor>(base_->Clone(), horizon_);
  }
  std::string name() const override { return "inverted"; }

 private:
  PredictorPtr base_;
  double horizon_;
};

TEST(PredictionPolicyTest, PerfectPredictionsMatchBestKnownWeightPolicy) {
  // Documented consistency slack: with lambda = 1 and a zero-noise oracle
  // the augmented policy must come within 10% of the best known-weight
  // online policy of the paper's set on every E8-family trace (it usually
  // wins outright; the slack absorbs the fetch-at-requested-level
  // convention difference on multi-level traces).
  const double kSlack = 1.10;
  for (const Trace& trace : E8Family(2026)) {
    const Cost ftp =
        RunPolicy(trace, OracleCombiner(trace, 1.0, NoiseKind::kNone, 0.0, 1));
    Cost best = std::numeric_limits<Cost>::infinity();
    for (const char* name : {"waterfill", "landlord", "marking", "lru"}) {
      if (std::string(name) == "marking" && trace.instance.num_levels() > 1) {
        continue;  // marking is single-level only
      }
      best = std::min(best, RunNamed(trace, name, 7));
    }
    EXPECT_LE(ftp, best * kSlack)
        << "n=" << trace.instance.num_pages()
        << " ell=" << trace.instance.num_levels();
  }
}

TEST(PredictionPolicyTest, LambdaZeroIsBitwiseWaterfillEvenWhenAdversarial) {
  for (const Trace& trace : E8Family(11)) {
    PredictorPtr inverted = std::make_unique<InvertingPredictor>(
        OraclePredictor::FromTrace(trace), 1000.0);
    PredictiveOptions options;
    options.lambda = 0.0;
    PolicyPtr combiner =
        MakePredictivePolicy(3, options, std::move(inverted), nullptr);
    ASSERT_NE(combiner, nullptr);
    const Cost combined = RunPolicy(trace, std::move(combiner));
    const Cost waterfill = RunNamed(trace, "waterfill", 3);
    EXPECT_EQ(combined, waterfill);
  }
}

TEST(PredictionPolicyTest, AdversarialPredictionsStayWithinRobustnessFactor) {
  // Documented robustness pin: at the default lambda = 0.75 the combiner's
  // theta is (1 + 0.75) / (1 - 0.75) = 7, and the switching argument bounds
  // cost by (1 + theta) * waterfill + switching overhead. The test pins the
  // empirical factor at 2 * (1 + theta) against waterfill, and relates it
  // to fractional-fast (the LP relaxation's rounded stack) as the paper's
  // reference scale.
  const double kFactor = 2.0 * (1.0 + 7.0);
  for (const Trace& trace : E8Family(23)) {
    PredictorPtr inverted = std::make_unique<InvertingPredictor>(
        OraclePredictor::FromTrace(trace), 1000.0);
    PredictiveOptions options;  // lambda = 0.75
    PolicyPtr combiner =
        MakePredictivePolicy(5, options, std::move(inverted), nullptr);
    ASSERT_NE(combiner, nullptr);
    const Cost combined = RunPolicy(trace, std::move(combiner));
    const Cost waterfill = RunNamed(trace, "waterfill", 5);
    EXPECT_LE(combined, kFactor * waterfill);
    const Cost fractional = RunNamed(trace, "randomized:engine=linear", 5);
    EXPECT_LE(combined, 4.0 * kFactor * fractional);
  }
}

// Declares one page dead and everything else imminent: the most damaging
// advice FTP can receive when that page is hot and expensive.
class DeadPagePredictor final : public Predictor {
 public:
  explicit DeadPagePredictor(PageId dead) : dead_(dead) {}
  double PredictNext(Time now, PageId p) const override {
    return p == dead_ ? predict::kNever : static_cast<double>(now) + 1.0;
  }
  std::unique_ptr<Predictor> Clone() const override {
    return std::make_unique<DeadPagePredictor>(dead_);
  }
  std::string name() const override { return "deadpage"; }

 private:
  PageId dead_;
};

TEST(PredictionPolicyTest, SwitchingAbandonsAdversarialAdvice) {
  // Page 0 is hot (every other request) and 128x heavier than the rest;
  // the adversarial predictor declares it dead, so pure FTP re-evicts it
  // on every miss while waterfill retains it. The combiner must detect
  // the bleed, switch to the robust expert, and land far below pure FTP.
  std::vector<std::vector<Cost>> weights{{128.0}};
  for (int i = 1; i < 16; ++i) weights.push_back({1.0});
  Instance inst(16, 4, 1, std::move(weights));
  std::vector<Request> reqs;
  for (int i = 0; i < 2000; ++i) {
    reqs.push_back(i % 2 == 0 ? Request{0, 1}
                              : Request{1 + ((i / 2) % 15), 1});
  }
  const Trace trace{std::move(inst), std::move(reqs)};
  PredictiveOptions options;
  options.lambda = 0.5;  // theta = 3: switches early once FTP bleeds
  const Cost combined = RunPolicy(
      trace, MakePredictivePolicy(5, options,
                                  std::make_unique<DeadPagePredictor>(0)));
  PredictiveOptions pure;
  pure.lambda = 1.0;
  const Cost ftp = RunPolicy(
      trace,
      MakePredictivePolicy(5, pure, std::make_unique<DeadPagePredictor>(0)));
  EXPECT_LT(combined, 0.2 * ftp);
  const Cost waterfill = RunNamed(trace, "waterfill", 5);
  EXPECT_LE(combined, 8.0 * waterfill);
}

TEST(PredictionPolicyTest, CostDegradesGracefullyInEta) {
  // Monotone-in-eta endpoints: perfect <= mildly corrupted * slack and
  // mildly corrupted <= heavily corrupted * slack, on the E8 zipf trace
  // with swap corruption (the adversarial channel of E18). The middle is
  // noisy, so the pin is endpoint-to-endpoint with a band, not per-step.
  const Trace trace = E8Family(47)[0];
  const Cost perfect =
      RunPolicy(trace, OracleCombiner(trace, 0.75, NoiseKind::kNone, 0.0, 9));
  const Cost mild =
      RunPolicy(trace, OracleCombiner(trace, 0.75, NoiseKind::kSwap, 0.25, 9));
  const Cost heavy =
      RunPolicy(trace, OracleCombiner(trace, 0.75, NoiseKind::kSwap, 1.0, 9));
  EXPECT_LE(perfect, mild * 1.05);
  EXPECT_LE(mild, heavy * 1.25);
  // And corruption can never escape the robustness bound.
  const Cost waterfill = RunNamed(trace, "waterfill", 9);
  EXPECT_LE(heavy, 16.0 * waterfill);
}

TEST(PredictionPolicyTest, DeterministicAcrossRuns) {
  const Trace trace = E8Family(53)[0];
  for (const char* name :
       {"predictive", "predictive:lambda=0.5,noise=lognormal,eta=0.5",
        "unknown-weights"}) {
    const Cost a = RunNamed(trace, name, 77);
    const Cost b = RunNamed(trace, name, 77);
    EXPECT_EQ(a, b) << name;
  }
}

Trace ScaleWeights(const Trace& trace, double c) {
  const Instance& inst = trace.instance;
  std::vector<std::vector<Cost>> weights;
  weights.reserve(static_cast<size_t>(inst.num_pages()));
  for (PageId p = 0; p < inst.num_pages(); ++p) {
    std::vector<Cost> row(static_cast<size_t>(inst.num_levels()));
    for (Level i = 1; i <= inst.num_levels(); ++i) {
      row[static_cast<size_t>(i - 1)] = c * inst.weight(p, i);
    }
    weights.push_back(std::move(row));
  }
  return Trace{Instance(inst.num_pages(), inst.cache_size(),
                        inst.num_levels(), std::move(weights)),
               trace.requests};
}

TEST(PredictionPolicyTest, DyadicScalingIsExactForOraclePrimedCombiner) {
  // metamorphic_test covers the registry names; this extends the bitwise
  // dyadic-scaling invariance to the oracle-primed construction, where the
  // FTP expert's cross-multiplied victim rule carries the burden.
  for (const Trace& trace : E8Family(61)) {
    const Cost base = RunPolicy(
        trace, OracleCombiner(trace, 0.75, NoiseKind::kLogNormal, 0.5, 13));
    for (const double c : {2.0, 1024.0}) {
      const Trace scaled = ScaleWeights(trace, c);
      const Cost after = RunPolicy(
          scaled, OracleCombiner(scaled, 0.75, NoiseKind::kLogNormal, 0.5, 13));
      EXPECT_EQ(after, c * base);
    }
  }
}

TEST(PredictionPolicyTest, BatchServingIsBitwiseEquivalentForCombiner) {
  const Trace trace = E8Family(71)[2];
  auto run_batched = [&](int32_t batch) {
    PolicyPtr policy = OracleCombiner(trace, 0.75, NoiseKind::kSwap, 0.3, 15);
    TraceSource source(trace);
    EngineOptions options;
    options.batch = batch;
    Engine engine(source, *policy, options);
    return engine.Run().eviction_cost;
  };
  const Cost single = run_batched(1);
  for (const int32_t batch : {2, 7, 64, 4096}) {
    EXPECT_EQ(run_batched(batch), single) << "batch=" << batch;
  }
}

TEST(PredictionPolicyTest, RegistryRejectsOutOfRangePredictiveParams) {
  for (const char* bad :
       {"predictive:lambda=1.5", "predictive:lambda=-0.1",
        "predictive:lambda=nan", "predictive:eta=-1",
        "predictive:noise=swap,eta=2", "predictive:noise=gaussian,eta=0.5",
        "predictive:alpha=0", "predictive:alpha=2", "predictive:horizon=-5",
        "predictive:horizon=2.5", "predictive:bogus=1", "predictive:lambda",
        "arc", "car", "lruk", "lruk:k=3"}) {
    EXPECT_EQ(MakePolicyByName(bad, 1), nullptr) << bad;
  }
  for (const char* good :
       {"predictive:lambda=0.5",
        "predictive:lambda=0.25,alpha=0.5,noise=stale,eta=100,horizon=32",
        "predictive:noise=lognormal,eta=2.5", "predictive:noise=swap,eta=1"}) {
    EXPECT_NE(MakePolicyByName(good, 1), nullptr) << good;
  }
}

}  // namespace
}  // namespace wmlp
