// Audit-layer tests (util/audit.h, sim/sim_audit.h, core/core_audit.h).
//
// Auditors that cannot fail are dead code: every negative test here feeds
// an auditor deliberately-corrupted state through a test double and
// asserts it fires. Positive tests run real policies end to end with the
// auditors armed and a throwing handler installed, so a miscalibrated
// tolerance shows up as a test failure rather than a silent pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/core_audit.h"
#include "core/fractional.h"
#include "core/randomized.h"
#include "core/rounding_multilevel.h"
#include "core/waterfill.h"
#include "engine/engine.h"
#include "engine/request_source.h"
#include "registry/policy_registry.h"
#include "sim/sim_audit.h"
#include "trace/generators.h"
#include "util/audit.h"

namespace wmlp {
namespace {

[[noreturn]] void ThrowingHandler(const std::string& message) {
  throw std::runtime_error(message);
}

Instance TwoLevelInstance() {
  return Instance(4, 2, 2, {{8.0, 2.0}, {8.0, 2.0}, {4.0, 1.0}, {4.0, 1.0}});
}

Trace SmallZipfTrace(int32_t n, int32_t k, int32_t ell) {
  const Instance inst(
      n, k, ell,
      MakeWeights(n, ell, WeightModel::kGeometricLevels, 8.0, /*seed=*/7));
  const LevelMix mix =
      ell == 1 ? LevelMix::AllLowest(1) : LevelMix::UniformMix(ell);
  return GenZipf(inst, /*length=*/400, /*alpha=*/0.8, mix, /*seed=*/11);
}

// A FractionalPolicy wrapper whose reported state can be corrupted after
// the fact: the inner policy stays consistent, but consumers that
// recompute from it (the rounding consistency auditors, the fractional
// state auditor) see a state that no longer matches their bookkeeping.
class CorruptibleFractional final : public FractionalPolicy {
 public:
  explicit CorruptibleFractional(FractionalPolicyPtr inner)
      : inner_(std::move(inner)) {}

  void Attach(const Instance& instance) override {
    inner_->Attach(instance);
  }
  void Serve(Time t, const Request& r) override { inner_->Serve(t, r); }
  double U(PageId p, Level i) const override {
    const double u = inner_->U(p, i);
    return corrupt_ ? u * 0.5 : u;
  }
  Cost lp_cost() const override { return inner_->lp_cost(); }
  std::string name() const override { return "corruptible"; }
  void ArmWatch(PageId p, Level i, double x) override {
    inner_->ArmWatch(p, i, x);
  }
  void DisarmWatch(PageId p) override { inner_->DisarmWatch(p); }
  std::span<const PageId> fired() const override { return inner_->fired(); }
  bool watch(PageId p, Level* i, double* x) const override {
    return inner_->watch(p, i, x);
  }
  void ClassSuffixMass(const Instance& instance, std::span<double> lo,
                       std::span<double> hi) const override {
    inner_->ClassSuffixMass(instance, lo, hi);
    for (size_t c = 0; c < lo.size(); ++c) {
      lo[c] += band_shift_;
      hi[c] += band_shift_;
    }
  }

  void set_corrupt(bool corrupt) { corrupt_ = corrupt; }
  void set_band_shift(double shift) { band_shift_ = shift; }

 private:
  FractionalPolicyPtr inner_;
  bool corrupt_ = false;
  double band_shift_ = 0.0;
};

// A FractionalPolicy test double reporting arbitrary fixed U values.
class FixedFractional final : public FractionalPolicy {
 public:
  FixedFractional(std::vector<double> u, int32_t ell)
      : u_(std::move(u)), ell_(ell) {}

  void Attach(const Instance&) override {}
  void Serve(Time, const Request&) override {}
  double U(PageId p, Level i) const override {
    return u_[static_cast<size_t>(p) * static_cast<size_t>(ell_) +
              static_cast<size_t>(i - 1)];
  }
  Cost lp_cost() const override { return 0.0; }
  std::string name() const override { return "fixed"; }
  void ArmWatch(PageId, Level, double) override {}
  void DisarmWatch(PageId) override {}
  std::span<const PageId> fired() const override { return {}; }
  bool watch(PageId, Level*, double*) const override { return false; }

 private:
  std::vector<double> u_;
  int32_t ell_;
};

class AuditTest : public ::testing::Test {
 protected:
  audit::ScopedFailureHandler handler_{ThrowingHandler};
};

// ---- Cache-state auditor -------------------------------------------------

TEST_F(AuditTest, CleanCacheStatePasses) {
  const Instance inst = TwoLevelInstance();
  CacheState state(inst);
  state.Insert(0, 1);
  state.Insert(2, 2);
  EXPECT_NO_THROW(audit::AuditCacheState(inst, state));
}

TEST_F(AuditTest, OverfullCacheFires) {
  const Instance inst = Instance::Uniform(4, 1);
  CacheState state(inst);
  state.Insert(0, 1);
  state.Insert(1, 1);  // CacheOps may overfill transiently; audit must see it
  EXPECT_THROW(audit::AuditCacheState(inst, state), std::runtime_error);
}

TEST_F(AuditTest, InvalidCachedLevelFires) {
  const Instance inst = Instance::Uniform(4, 2);
  CacheState state(inst);
  state.Insert(0, 3);  // ell == 1: no such level
  EXPECT_THROW(audit::AuditCacheState(inst, state), std::runtime_error);
}

TEST_F(AuditTest, CapacityMismatchFires) {
  const Instance inst = Instance::Uniform(4, 2);
  const Instance other = Instance::Uniform(4, 3);
  CacheState state(other);
  EXPECT_THROW(audit::AuditCacheState(inst, state), std::runtime_error);
}

// ---- Cost-convention auditor ---------------------------------------------

TEST_F(AuditTest, CostConventionHoldsOnRealRun) {
  const Trace trace = SmallZipfTrace(12, 4, 2);
  WaterfillPolicy policy;
  TraceSource source(trace);
  Engine engine(source, policy);
  while (engine.Step()) {
    audit::AuditCacheState(trace.instance, engine.cache());
    audit::AuditCostConvention(trace.instance, engine.cache(),
                               engine.ops().fetch_cost(),
                               engine.ops().eviction_cost());
    policy.AuditState(engine.cache());
  }
}

TEST_F(AuditTest, CostConventionFiresOnWrongTotals) {
  const Instance inst = TwoLevelInstance();
  CacheState state(inst);
  state.Insert(0, 1);  // resident weight 8
  EXPECT_NO_THROW(audit::AuditCostConvention(inst, state, 8.0, 0.0));
  // Fetch meter under-charged: fetch - evict != resident.
  EXPECT_THROW(audit::AuditCostConvention(inst, state, 5.0, 0.0),
               std::runtime_error);
  // Eviction meter over-charged.
  EXPECT_THROW(audit::AuditCostConvention(inst, state, 8.0, 3.0),
               std::runtime_error);
}

// ---- Fractional-state auditor --------------------------------------------

TEST_F(AuditTest, FractionalAuditPassesOnRealPolicy) {
  const Trace trace = SmallZipfTrace(10, 3, 2);
  FractionalMlp frac;
  frac.Attach(trace.instance);
  Time t = 0;
  for (const Request& r : trace.requests) {
    frac.Serve(t++, r);
    audit::AuditFractionalState(trace.instance, frac);
    audit::AuditFractionalServed(trace.instance, frac, r);
  }
}

TEST_F(AuditTest, FractionalOutOfRangeUFires) {
  const Instance inst = Instance::Uniform(3, 1);
  const FixedFractional frac({1.5, 1.0, 1.0}, 1);
  EXPECT_THROW(audit::AuditFractionalState(inst, frac),
               std::runtime_error);
}

TEST_F(AuditTest, FractionalNonMonotoneLevelsFire) {
  const Instance inst = TwoLevelInstance();
  // u(p, 2) > u(p, 1): suffix mass would be negative.
  const FixedFractional frac({0.2, 0.8, 1, 1, 1, 1, 1, 1}, 2);
  EXPECT_THROW(audit::AuditFractionalState(inst, frac),
               std::runtime_error);
}

TEST_F(AuditTest, FractionalInfeasibleMassFires) {
  const Instance inst = Instance::Uniform(4, 2);
  // All pages fully cached: mass 4 > k = 2, absent mass 0 < n - k = 2.
  const FixedFractional frac({0.0, 0.0, 0.0, 0.0}, 1);
  EXPECT_THROW(audit::AuditFractionalState(inst, frac),
               std::runtime_error);
}

TEST_F(AuditTest, FractionalUnservedRequestFires) {
  const Instance inst = Instance::Uniform(4, 2);
  const FixedFractional frac({1.0, 0.0, 1.0, 0.0}, 1);
  const Request r{0, 1};
  EXPECT_THROW(audit::AuditFractionalServed(inst, frac, r),
               std::runtime_error);
}

// ---- Waterfill self-audit ------------------------------------------------

TEST_F(AuditTest, WaterfillAuditFiresOnForeignCache) {
  const Trace trace = SmallZipfTrace(12, 4, 1);
  WaterfillPolicy policy;
  TraceSource source(trace);
  Engine engine(source, policy);
  engine.Run();
  EXPECT_NO_THROW(policy.AuditState(engine.cache()));
  // A cache holding a copy the policy never fetched: heap and cache
  // disagree, exactly the corruption the auditor exists to catch.
  CacheState foreign(trace.instance);
  foreign.Insert(0, 1);
  foreign.Insert(1, 1);
  EXPECT_THROW(policy.AuditState(foreign), std::runtime_error);
}

// ---- Rounding consistency + reset postcondition auditors -----------------

TEST_F(AuditTest, WeightedRoundingConsistencyFiresAfterCorruption) {
  const Trace trace = SmallZipfTrace(10, 3, 1);
  auto owned = std::make_unique<CorruptibleFractional>(
      std::make_unique<FractionalMlp>());
  CorruptibleFractional* fractional = owned.get();
  RoundedMultiLevel policy(std::move(owned), /*seed=*/5);
  TraceSource source(trace);
  Engine engine(source, policy);
  engine.Run();
  EXPECT_NO_THROW(policy.CheckConsistency(engine.ops(), trace.length()));
  fractional->set_corrupt(true);
  EXPECT_THROW(policy.CheckConsistency(engine.ops(), trace.length()),
               std::runtime_error);
}

TEST_F(AuditTest, MultiLevelRoundingConsistencyFiresAfterCorruption) {
  const Trace trace = SmallZipfTrace(10, 3, 2);
  auto owned = std::make_unique<CorruptibleFractional>(
      std::make_unique<FractionalMlp>());
  CorruptibleFractional* fractional = owned.get();
  RoundedMultiLevel policy(std::move(owned), /*seed=*/5);
  TraceSource source(trace);
  Engine engine(source, policy);
  engine.Run();
  EXPECT_NO_THROW(policy.CheckConsistency(engine.ops(), trace.length()));
  fractional->set_corrupt(true);
  EXPECT_THROW(policy.CheckConsistency(engine.ops(), trace.length()),
               std::runtime_error);
}

// The threshold rounding's own state: a run over the discretized stack,
// then one corruption per auditor.
class ThresholdAuditTest : public AuditTest {
 protected:
  void SetUp() override {
    auto owned = std::make_unique<CorruptibleFractional>(
        MakeFractionalStack());
    fractional_ = owned.get();
    policy_ = std::make_unique<RoundedMultiLevel>(std::move(owned),
                                                  /*seed=*/5);
    source_ = std::make_unique<TraceSource>(trace_);
    engine_ = std::make_unique<Engine>(*source_, *policy_);
    engine_->Run();
    ASSERT_NO_THROW(Check());
  }
  void Check() const {
    policy_->CheckConsistency(engine_->ops(), trace_.length());
  }
  // A cached page whose copy carries a live threshold (theta < 1).
  PageId WatchedCachedPage() const {
    for (PageId p : engine_->cache().pages()) {
      if (policy_->threshold(p) < 1.0) return p;
    }
    return -1;
  }

  const Trace trace_ = SmallZipfTrace(10, 3, 2);
  CorruptibleFractional* fractional_ = nullptr;
  std::unique_ptr<RoundedMultiLevel> policy_;
  std::unique_ptr<TraceSource> source_;
  std::unique_ptr<Engine> engine_;
};

TEST_F(ThresholdAuditTest, ThresholdOutsideItsIntervalFires) {
  const PageId p = WatchedCachedPage();
  ASSERT_GE(p, 0);
  // Below v(p, c): the boundary has already crossed it, so the copy should
  // have left.
  policy_->set_threshold_for_testing(p, -0.5);
  EXPECT_THROW(Check(), std::runtime_error);
}

TEST_F(ThresholdAuditTest, MissingWatchFires) {
  const PageId p = WatchedCachedPage();
  ASSERT_GE(p, 0);
  fractional_->DisarmWatch(p);
  EXPECT_THROW(Check(), std::runtime_error);
}

TEST_F(ThresholdAuditTest, WatchOnUncachedPageFires) {
  PageId absent = -1;
  for (PageId p = 0; p < trace_.instance.num_pages(); ++p) {
    if (!engine_->cache().contains(p)) absent = p;
  }
  ASSERT_GE(absent, 0);
  fractional_->ArmWatch(absent, 1, 0.5);
  EXPECT_THROW(Check(), std::runtime_error);
}

TEST_F(ThresholdAuditTest, ClassMassBandMissingTheScanFires) {
  fractional_->set_band_shift(3.0);
  EXPECT_THROW(Check(), std::runtime_error);
}

// ---- Handler machinery ---------------------------------------------------

TEST(AuditHandlerTest, ScopedHandlerRestoresPrevious) {
  audit::SetFailureHandler(nullptr);
  {
    audit::ScopedFailureHandler scoped(ThrowingHandler);
    EXPECT_THROW(audit::Fail("inner"), std::runtime_error);
  }
  // Restored to the aborting default.
  EXPECT_DEATH(audit::Fail("outer"), "WMLP_AUDIT failed: outer");
}

TEST(AuditHandlerTest, DefaultHandlerAborts) {
  const Instance inst = Instance::Uniform(2, 1);
  CacheState state(inst);
  state.Insert(0, 1);
  state.Insert(1, 1);
  EXPECT_DEATH(audit::AuditCacheState(inst, state), "WMLP_AUDIT failed");
}

// ---- Every registry policy is audit-clean end to end ---------------------

TEST_F(AuditTest, AllRegistryPoliciesAuditCleanPerStep) {
  const Trace trace = SmallZipfTrace(12, 4, 1);
  for (const std::string& name : KnownPolicyNames()) {
    SCOPED_TRACE(name);
    const PolicyPtr policy = MakePolicyByName(name, /*seed=*/3);
    ASSERT_NE(policy, nullptr);
    TraceSource source(trace);
    Engine engine(source, *policy);
    while (engine.Step()) {
      audit::AuditCacheState(trace.instance, engine.cache());
      audit::AuditCostConvention(trace.instance, engine.cache(),
                                 engine.ops().fetch_cost(),
                                 engine.ops().eviction_cost());
    }
  }
}

}  // namespace
}  // namespace wmlp
