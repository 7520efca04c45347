#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/discretize.h"
#include "core/fractional.h"
#include "lp/paging_lp.h"
#include "offline/weighted_opt.h"
#include "trace/generators.h"
#include "util/rng.h"

namespace wmlp {
namespace {

FracSchedule RunRecorded(const Trace& trace, const FractionalOptions& opts) {
  FractionalOptions o = opts;
  o.record_schedule = true;
  FractionalMlp frac(o);
  frac.Attach(trace.instance);
  for (Time t = 0; t < trace.length(); ++t) {
    frac.Serve(t, trace.requests[static_cast<size_t>(t)]);
  }
  return frac.schedule();
}

TEST(Fractional, ServesEveryRequest) {
  Instance inst = Instance::Uniform(6, 2);
  const Trace t = GenZipf(inst, 50, 0.7, LevelMix::AllLowest(1), 1);
  FractionalMlp frac;
  frac.Attach(inst);
  for (Time i = 0; i < t.length(); ++i) {
    const Request& r = t.requests[static_cast<size_t>(i)];
    frac.Serve(i, r);
    EXPECT_NEAR(frac.U(r.page, r.level), 0.0, 1e-9);
  }
}

TEST(Fractional, ScheduleIsLpFeasibleSingleLevel) {
  Instance inst(8, 3, 1, MakeWeights(8, 1, WeightModel::kLogUniform, 8.0, 2));
  const Trace t = GenZipf(inst, 120, 0.6, LevelMix::AllLowest(1), 3);
  const FracSchedule sched = RunRecorded(t, {});
  std::string err;
  EXPECT_TRUE(CheckFracScheduleFeasible(t, sched, 1e-6, &err)) << err;
}

TEST(Fractional, ScheduleIsLpFeasibleMultiLevel) {
  Instance inst(6, 2, 3,
                MakeWeights(6, 3, WeightModel::kGeometricLevels, 16.0, 4));
  const Trace t = GenZipf(inst, 150, 0.6, LevelMix::UniformMix(3), 5);
  const FracSchedule sched = RunRecorded(t, {});
  std::string err;
  EXPECT_TRUE(CheckFracScheduleFeasible(t, sched, 1e-6, &err)) << err;
}

TEST(Fractional, LpCostMatchesScheduleCost) {
  Instance inst(6, 2, 2,
                MakeWeights(6, 2, WeightModel::kGeometricLevels, 4.0, 6));
  const Trace t = GenZipf(inst, 80, 0.7, LevelMix::UniformMix(2), 7);
  FractionalOptions o;
  o.record_schedule = true;
  FractionalMlp frac(o);
  frac.Attach(inst);
  for (Time i = 0; i < t.length(); ++i) {
    frac.Serve(i, t.requests[static_cast<size_t>(i)]);
  }
  EXPECT_NEAR(frac.lp_cost(), FracScheduleEvictionCost(t, frac.schedule()),
              1e-6);
}

TEST(Fractional, CompetitiveAgainstLpOptimum) {
  // O(log k) competitiveness, measured: fractional cost within
  // c * log(k+1) * LP-OPT + additive for small instances.
  Rng seeds(1234);
  for (int trial = 0; trial < 3; ++trial) {
    Instance inst(4, 2, 1,
                  MakeWeights(4, 1, WeightModel::kLogUniform, 4.0,
                              seeds.Next()));
    const Trace t = GenZipf(inst, 14, 0.4, LevelMix::AllLowest(1),
                            seeds.Next());
    const auto lp = SolvePagingLp(t);
    ASSERT_EQ(lp.status, SimplexStatus::kOptimal);
    FractionalMlp frac;
    frac.Attach(inst);
    for (Time i = 0; i < t.length(); ++i) {
      frac.Serve(i, t.requests[static_cast<size_t>(i)]);
    }
    const double c = 8.0 * std::log(inst.cache_size() + 2.0);
    EXPECT_LE(frac.lp_cost(), c * lp.objective + 4.0 * inst.max_weight())
        << "trial " << trial << " frac=" << frac.lp_cost()
        << " lp=" << lp.objective;
  }
}

TEST(Fractional, UMonotoneInLevels) {
  Instance inst(5, 2, 3,
                MakeWeights(5, 3, WeightModel::kGeometricLevels, 16.0, 8));
  const Trace t = GenZipf(inst, 100, 0.8, LevelMix::UniformMix(3), 9);
  FractionalMlp frac;
  frac.Attach(inst);
  for (Time i = 0; i < t.length(); ++i) {
    frac.Serve(i, t.requests[static_cast<size_t>(i)]);
    for (PageId p = 0; p < inst.num_pages(); ++p) {
      for (Level l = 2; l <= 3; ++l) {
        EXPECT_GE(frac.U(p, l - 1), frac.U(p, l) - 1e-9);
      }
    }
  }
}

TEST(Fractional, CapacityRespectedEachStep) {
  Instance inst = Instance::Uniform(10, 3);
  const Trace t = GenZipf(inst, 200, 0.9, LevelMix::AllLowest(1), 10);
  FractionalMlp frac;
  frac.Attach(inst);
  for (Time i = 0; i < t.length(); ++i) {
    frac.Serve(i, t.requests[static_cast<size_t>(i)]);
    double total = 0.0;
    for (PageId p = 0; p < 10; ++p) total += frac.U(p, 1);
    EXPECT_GE(total, 10 - 3 - 1e-6);
  }
}

TEST(Fractional, OnlyRequestedPageDecreases) {
  Instance inst = Instance::Uniform(8, 3);
  const Trace t = GenZipf(inst, 120, 0.7, LevelMix::AllLowest(1), 11);
  FractionalMlp frac;
  frac.Attach(inst);
  std::vector<double> prev(8, 1.0);
  for (Time i = 0; i < t.length(); ++i) {
    const Request& r = t.requests[static_cast<size_t>(i)];
    frac.Serve(i, r);
    for (PageId p = 0; p < 8; ++p) {
      if (p != r.page) {
        EXPECT_GE(frac.U(p, 1), prev[static_cast<size_t>(p)] - 1e-9)
            << "page " << p << " decreased at t=" << i;
      }
      prev[static_cast<size_t>(p)] = frac.U(p, 1);
    }
  }
}

TEST(Fractional, WatchesCoverAllMovement) {
  // Every page carries a watch a random distance above its value; after
  // each Serve the fired set is exactly the watched pages whose u rose past
  // their threshold. Fired and served pages are re-armed.
  Instance inst = Instance::Uniform(8, 3);
  const Trace t = GenZipf(inst, 300, 0.7, LevelMix::AllLowest(1), 12);
  FractionalMlp frac;
  frac.Attach(inst);
  Rng rng(5);
  std::vector<double> x(8, 0.0);
  auto arm = [&](PageId p) {
    const double u = frac.U(p, 1);
    x[static_cast<size_t>(p)] = u + (1.0 - u) * rng.NextDouble();
    frac.ArmWatch(p, 1, x[static_cast<size_t>(p)]);
  };
  for (PageId p = 0; p < 8; ++p) arm(p);
  int64_t fired_total = 0;
  for (Time i = 0; i < t.length(); ++i) {
    const PageId served = t.requests[static_cast<size_t>(i)].page;
    frac.Serve(i, t.requests[static_cast<size_t>(i)]);
    std::vector<bool> fired(8, false);
    for (PageId p : frac.fired()) fired[static_cast<size_t>(p)] = true;
    EXPECT_TRUE(std::is_sorted(frac.fired().begin(), frac.fired().end()));
    for (PageId p = 0; p < 8; ++p) {
      const double u = frac.U(p, 1);
      const double xp = x[static_cast<size_t>(p)];
      if (p == served) {
        EXPECT_FALSE(fired[static_cast<size_t>(p)]);
        EXPECT_FALSE(frac.watch(p, nullptr, nullptr));  // cleared by Serve
      } else if (std::abs(u - xp) > 1e-9) {
        EXPECT_EQ(fired[static_cast<size_t>(p)], u > xp)
            << "page " << p << " u=" << u << " x=" << xp << " at t=" << i;
      }
      if (fired[static_cast<size_t>(p)]) {
        EXPECT_FALSE(frac.watch(p, nullptr, nullptr));
        ++fired_total;
      }
      if (fired[static_cast<size_t>(p)] || p == served) arm(p);
    }
  }
  EXPECT_GT(fired_total, 20);
}

TEST(Fractional, EtaDefaultsToOneOverK) {
  FractionalMlp frac;
  Instance inst = Instance::Uniform(8, 4);
  frac.Attach(inst);
  EXPECT_NEAR(frac.eta(), 0.25, 1e-12);
  FractionalOptions o;
  o.eta = 0.125;
  FractionalMlp frac2(o);
  frac2.Attach(inst);
  EXPECT_NEAR(frac2.eta(), 0.125, 1e-12);
}

// ---- Discretization (Lemma 4.5) --------------------------------------------

TEST(Discretize, ValuesOnGrid) {
  Instance inst = Instance::Uniform(8, 4);  // delta = 1/16
  DiscretizedFractional disc(std::make_unique<FractionalMlp>());
  disc.Attach(inst);
  EXPECT_NEAR(disc.delta(), 1.0 / 16.0, 1e-12);
  const Trace t = GenZipf(inst, 100, 0.7, LevelMix::AllLowest(1), 13);
  for (Time i = 0; i < t.length(); ++i) {
    disc.Serve(i, t.requests[static_cast<size_t>(i)]);
    for (PageId p = 0; p < 8; ++p) {
      const double u = disc.U(p, 1);
      const double cells = u / disc.delta();
      EXPECT_NEAR(cells, std::round(cells), 1e-6)
          << "u=" << u << " not on grid at t=" << i;
    }
  }
}

TEST(Discretize, PreservesFeasibility) {
  Instance inst(6, 2, 2,
                MakeWeights(6, 2, WeightModel::kGeometricLevels, 4.0, 14));
  const Trace t = GenZipf(inst, 120, 0.6, LevelMix::UniformMix(2), 15);
  DiscretizedFractional disc(std::make_unique<FractionalMlp>());
  disc.Attach(inst);
  FracSchedule sched;
  sched.u.emplace_back(static_cast<size_t>(6 * 2), 1.0);
  for (Time i = 0; i < t.length(); ++i) {
    disc.Serve(i, t.requests[static_cast<size_t>(i)]);
    std::vector<double> snap;
    for (PageId p = 0; p < 6; ++p) {
      for (Level l = 1; l <= 2; ++l) snap.push_back(disc.U(p, l));
    }
    sched.u.push_back(std::move(snap));
  }
  std::string err;
  EXPECT_TRUE(CheckFracScheduleFeasible(t, sched, 1e-6, &err)) << err;
}

TEST(Discretize, CostWithinSmallFactorOfExact) {
  Instance inst = Instance::Uniform(10, 4);
  const Trace t = GenZipf(inst, 400, 0.8, LevelMix::AllLowest(1), 16);
  FractionalMlp exact;
  exact.Attach(inst);
  DiscretizedFractional disc(std::make_unique<FractionalMlp>());
  disc.Attach(inst);
  for (Time i = 0; i < t.length(); ++i) {
    exact.Serve(i, t.requests[static_cast<size_t>(i)]);
    disc.Serve(i, t.requests[static_cast<size_t>(i)]);
  }
  EXPECT_GT(exact.lp_cost(), 0.0);
  // Lemma 4.5: at most a factor 2 (we allow slack + additive).
  EXPECT_LE(disc.lp_cost(), 2.5 * exact.lp_cost() + 10.0);
}

TEST(Discretize, CustomDelta) {
  DiscretizedFractional disc(std::make_unique<FractionalMlp>(), 0.125);
  Instance inst = Instance::Uniform(4, 2);
  disc.Attach(inst);
  EXPECT_NEAR(disc.delta(), 0.125, 1e-12);
}

}  // namespace
}  // namespace wmlp
