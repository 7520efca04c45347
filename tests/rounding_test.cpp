#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "baselines/lru.h"
#include "core/randomized.h"
#include "core/rounding_multilevel.h"
#include "core/weight_classes.h"
#include "offline/weighted_opt.h"
#include "sim/simulator.h"
#include "trace/generators.h"
#include "util/rng.h"
#include "util/stats.h"

namespace wmlp {
namespace {

TEST(WeightClasses, ClassOf) {
  EXPECT_EQ(WeightClasses::ClassOf(1.0), 0);
  EXPECT_EQ(WeightClasses::ClassOf(1.5), 1);
  EXPECT_EQ(WeightClasses::ClassOf(2.0), 1);
  EXPECT_EQ(WeightClasses::ClassOf(2.1), 2);
  EXPECT_EQ(WeightClasses::ClassOf(4.0), 2);
  EXPECT_EQ(WeightClasses::ClassOf(1024.0), 10);
  // The 1e-12 relative tolerance above a power of two.
  EXPECT_EQ(WeightClasses::ClassOf(4.0 * (1.0 + 5e-13)), 2);
  EXPECT_EQ(WeightClasses::ClassOf(4.0 * (1.0 + 2e-12)), 3);
  EXPECT_EQ(WeightClasses::ClassOf(std::nextafter(2.0, 0.0)), 1);
}

TEST(WeightClasses, ClassOfMatchesDoublingLoop) {
  // The definition: the smallest c with w <= 2^c (1 + 1e-12).
  auto reference = [](Cost w) {
    int32_t c = 0;
    for (Cost bound = 1.0; w > bound * (1.0 + 1e-12); bound *= 2.0) ++c;
    return c;
  };
  Rng rng(41);
  for (int i = 0; i < 20000; ++i) {
    const Cost w = std::exp2(60.0 * rng.NextDouble());
    ASSERT_EQ(WeightClasses::ClassOf(w), reference(w)) << w;
    const Cost edge = std::exp2(static_cast<double>(rng.NextBounded(60)));
    for (const Cost v : {edge, edge * (1.0 + 1e-12), std::nextafter(edge, 0.0),
                         std::nextafter(edge * (1.0 + 1e-12), 1e300)}) {
      if (v < 1.0) continue;
      ASSERT_EQ(WeightClasses::ClassOf(v), reference(v)) << v;
    }
  }
}

TEST(WeightClasses, PerInstancePrecomputation) {
  Instance inst(2, 1, 2, {{8.0, 2.0}, {3.0, 1.0}});
  WeightClasses wc(inst);
  EXPECT_EQ(wc.class_of(0, 1), 3);
  EXPECT_EQ(wc.class_of(0, 2), 1);
  EXPECT_EQ(wc.class_of(1, 1), 2);
  EXPECT_EQ(wc.class_of(1, 2), 0);
  EXPECT_EQ(wc.num_classes(), 4);
}

// The strict simulator validates feasibility (serves every request, never
// exceeds k) on every step, so clean runs double as invariant tests
// (Lemma 4.6 / 4.13).

struct RoundingCase {
  int32_t n;
  int32_t k;
  int32_t ell;
  double alpha;
  uint64_t seed;
};

class RoundingSweep : public ::testing::TestWithParam<RoundingCase> {};

TEST_P(RoundingSweep, FeasibleAndServing) {
  const RoundingCase& c = GetParam();
  Instance inst(c.n, c.k, c.ell,
                MakeWeights(c.n, c.ell, WeightModel::kLogUniform, 16.0,
                            c.seed));
  const Trace t = GenZipf(inst, 600, c.alpha,
                          c.ell == 1 ? LevelMix::AllLowest(1)
                                     : LevelMix::UniformMix(c.ell),
                          c.seed + 1);
  PolicyPtr p = MakeRandomizedPolicy(c.seed + 2);
  const SimResult res = Simulate(t, *p);
  EXPECT_GT(res.hits + res.misses, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RoundingSweep,
    ::testing::Values(RoundingCase{6, 2, 1, 0.5, 1},
                      RoundingCase{16, 4, 1, 0.9, 2},
                      RoundingCase{32, 8, 1, 0.7, 3},
                      RoundingCase{8, 2, 2, 0.6, 4},
                      RoundingCase{16, 4, 2, 0.8, 5},
                      RoundingCase{12, 3, 3, 0.7, 6},
                      RoundingCase{24, 6, 4, 0.9, 7},
                      RoundingCase{9, 8, 1, 0.5, 8},
                      RoundingCase{64, 16, 2, 1.0, 9}),
    [](const auto& suite_info) {
      // Built by append: gcc 12's -O3 -Werror=restrict misfires on the
      // operator+(const char*, string&&) chain here.
      const RoundingCase& c = suite_info.param;
      std::string name = "n";
      name += std::to_string(c.n);
      name += "k";
      name += std::to_string(c.k);
      name += "ell";
      name += std::to_string(c.ell);
      name += "s";
      name += std::to_string(c.seed);
      return name;
    });

// ell = 1: Algorithm 2 on a single level is Algorithm 1 (Section 4.3.1);
// the RoundedWeighted suite checks the weighted-paging guarantees on the
// one rounding class.

TEST(RoundedWeighted, BetaDefault) {
  Instance inst = Instance::Uniform(8, 4);
  RoundedMultiLevel p(MakeFractionalStack(), 1);
  Trace t{inst, {{0, 1}}};
  Simulate(t, p);
  EXPECT_NEAR(p.beta(), 4.0 * std::log(5.0), 1e-9);
}

TEST(RoundedWeighted, DeterministicGivenSeed) {
  Instance inst = Instance::Uniform(16, 4);
  const Trace t = GenZipf(inst, 400, 0.8, LevelMix::AllLowest(1), 20);
  RoundedMultiLevel a(MakeFractionalStack(), 9);
  RoundedMultiLevel b(MakeFractionalStack(), 9);
  EXPECT_EQ(Simulate(t, a).eviction_cost, Simulate(t, b).eviction_cost);
}

TEST(RoundedWeighted, CostTracksFractionalTimesBeta) {
  // Expected integral cost <= O(beta) * fractional cost + resets (Lemmas
  // 4.11/4.12). Measured with generous slack across seeds.
  Instance inst(24, 6, 1,
                MakeWeights(24, 1, WeightModel::kLogUniform, 8.0, 21));
  const Trace t = GenZipf(inst, 1500, 0.8, LevelMix::AllLowest(1), 22);
  RunningStat integral;
  double frac_cost = 0.0;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    RoundedMultiLevel p(MakeFractionalStack(), seed);
    integral.Add(Simulate(t, p).eviction_cost);
    frac_cost = p.fractional().lp_cost();
  }
  ASSERT_GT(frac_cost, 0.0);
  const double beta = 4.0 * std::log(7.0);
  EXPECT_LE(integral.mean(), 3.0 * beta * frac_cost + 50.0);
}

TEST(RoundedWeighted, ResetEvictionsAreRare) {
  // Lemma 4.12: with beta = 4 log k the reset cost is O(1) x fractional;
  // in particular resets should be a small fraction of all evictions.
  Instance inst = Instance::Uniform(32, 8);
  const Trace t = GenZipf(inst, 3000, 0.9, LevelMix::AllLowest(1), 23);
  int64_t resets = 0, evictions = 0;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    RoundedMultiLevel p(MakeFractionalStack(), seed);
    const SimResult res = Simulate(t, p);
    resets += p.reset_evictions();
    evictions += res.evictions;
  }
  ASSERT_GT(evictions, 0);
  EXPECT_LT(static_cast<double>(resets),
            0.2 * static_cast<double>(evictions) + 8.0);
}

TEST(RoundedWeighted, MarginalsMatchProductDistribution) {
  // Coupling sanity (Lemma 4.9): across many independent runs, the
  // probability that a page is in the cache at a fixed time is at most the
  // product-distribution marginal 1 - y_p(t) ... and empirically close to
  // it for most pages. We check the upper bound with statistical slack.
  Instance inst = Instance::Uniform(10, 5);
  const Trace t = GenZipf(inst, 120, 0.6, LevelMix::AllLowest(1), 24);

  // Final fractional state (deterministic).
  FractionalPolicyPtr frac = MakeFractionalStack();
  frac->Attach(inst);
  for (Time i = 0; i < t.length(); ++i) {
    frac->Serve(i, t.requests[static_cast<size_t>(i)]);
  }
  const double beta = 4.0 * std::log(6.0);
  std::vector<double> y(10);
  for (PageId p = 0; p < 10; ++p) {
    y[static_cast<size_t>(p)] = std::min(1.0, beta * frac->U(p, 1));
  }

  const int kRuns = 400;
  std::vector<int> present(10, 0);
  for (int run = 0; run < kRuns; ++run) {
    RoundedMultiLevel policy(MakeFractionalStack(),
                                 static_cast<uint64_t>(run));
    // Track presence at the end by replaying and inspecting the cache via
    // the event log.
    std::vector<CacheEvent> log;
    SimOptions opts;
    opts.event_log = &log;
    Simulate(t, policy, opts);
    std::vector<bool> in_cache(10, false);
    for (const auto& ev : log) {
      in_cache[static_cast<size_t>(ev.page)] =
          ev.kind == CacheEvent::Kind::kFetch;
    }
    for (PageId p = 0; p < 10; ++p) {
      if (in_cache[static_cast<size_t>(p)]) ++present[static_cast<size_t>(p)];
    }
  }
  for (PageId p = 0; p < 10; ++p) {
    const double empirical =
        static_cast<double>(present[static_cast<size_t>(p)]) / kRuns;
    const double marginal = 1.0 - y[static_cast<size_t>(p)];
    // Subset coupling: Pr[p in C] <= Pr[p in U] = marginal (+ noise).
    EXPECT_LE(empirical, marginal + 0.08)
        << "page " << p << " empirical " << empirical << " marginal "
        << marginal;
  }
}

TEST(RoundedMultiLevel, PrefixMarginalsBoundedByCoupledDistribution) {
  // Multi-level coupling (Section 4.3.3): for every prefix (p, 1..i), the
  // probability that the integral cache holds a copy at level <= i is at
  // most the coupled product distribution's marginal 1 - v(p, i) with
  // v = min(beta * u, 1). Checked at the final time step over many runs.
  Instance inst(8, 4, 2,
                MakeWeights(8, 2, WeightModel::kGeometricLevels, 8.0, 77));
  const Trace t = GenZipf(inst, 150, 0.7, LevelMix::UniformMix(2), 78);

  FractionalPolicyPtr frac = MakeFractionalStack();
  frac->Attach(inst);
  for (Time i = 0; i < t.length(); ++i) {
    frac->Serve(i, t.requests[static_cast<size_t>(i)]);
  }
  const double beta = 4.0 * std::log(5.0);

  const int kRuns = 300;
  // counts[p][i-1]: runs whose final cache holds a copy of p at level <= i.
  std::vector<std::array<int, 2>> prefix_count(8, {0, 0});
  for (int run = 0; run < kRuns; ++run) {
    RoundedMultiLevel policy(MakeFractionalStack(),
                             static_cast<uint64_t>(run));
    CacheState cache(inst);
    CacheOps ops(inst, cache);
    policy.Attach(inst);
    for (Time i = 0; i < t.length(); ++i) {
      ops.set_time(i);
      policy.Serve(i, t.requests[static_cast<size_t>(i)], ops);
    }
    for (PageId p = 0; p < 8; ++p) {
      const Level lvl = cache.level_of(p);
      if (lvl == 0) continue;
      for (Level i = lvl; i <= 2; ++i) {
        ++prefix_count[static_cast<size_t>(p)][static_cast<size_t>(i - 1)];
      }
    }
  }
  for (PageId p = 0; p < 8; ++p) {
    for (Level i = 1; i <= 2; ++i) {
      const double empirical =
          static_cast<double>(
              prefix_count[static_cast<size_t>(p)][static_cast<size_t>(
                  i - 1)]) /
          kRuns;
      const double marginal =
          1.0 - std::min(1.0, beta * frac->U(p, i));
      EXPECT_LE(empirical, marginal + 0.09)
          << "p=" << p << " prefix<=" << i << " empirical " << empirical
          << " marginal " << marginal;
    }
  }
}

TEST(RoundedMultiLevel, OneCopyInvariantHolds) {
  // Structural: CacheState enforces one copy per page; a clean run on a
  // level-heavy trace exercises the demote path (Lemma 4.13).
  Instance inst(10, 3, 4,
                MakeWeights(10, 4, WeightModel::kGeometricLevels, 64.0, 25));
  const Trace t = GenZipf(inst, 800, 0.8, LevelMix::UniformMix(4), 26);
  RoundedMultiLevel p(MakeFractionalStack(), 5);
  const SimResult res = Simulate(t, *&p);
  EXPECT_GT(res.misses, 0);
}

TEST(RoundedMultiLevel, EquivalentBehaviorOnSingleLevel) {
  // One rounding class serves every ell: at ell = 1 the registry factory
  // builds exactly the direct multi-level rounding over the default stack,
  // so the two runs agree bit for bit.
  Instance inst = Instance::Uniform(16, 4);
  const Trace t = GenZipf(inst, 800, 0.8, LevelMix::AllLowest(1), 27);
  for (uint64_t seed = 0; seed < 4; ++seed) {
    PolicyPtr p1 = MakeRandomizedPolicy(seed);
    RoundedMultiLevel p2(MakeFractionalStack(), seed);
    const SimResult a = Simulate(t, *p1);
    const SimResult b = Simulate(t, p2);
    EXPECT_EQ(a.eviction_cost, b.eviction_cost);
    EXPECT_EQ(a.evictions, b.evictions);
  }
}

TEST(RoundedMultiLevel, StraddlingBandsFallBackToTheExactScan) {
  // At tiny k the discretization band (present pages x 1/(4k)) is wide
  // enough to straddle reset decisions: the exact scan must settle them,
  // with the paranoid audit (reset postcondition against scanned masses)
  // holding after every request.
  Instance inst(6, 3, 2,
                MakeWeights(6, 2, WeightModel::kLogUniform, 16.0, 3));
  const Trace t = GenZipf(inst, 400, 0.7, LevelMix::UniformMix(2), 5);
  MultiLevelRoundingOptions opts;
  opts.beta = 1.5;
  opts.paranoid = true;
  int64_t scans = 0;
  int64_t resets = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    RoundedMultiLevel p(MakeFractionalStack(), seed, opts);
    Simulate(t, p);
    scans += p.exact_mass_scans();
    resets += p.reset_evictions();
  }
  EXPECT_GT(scans, 0);
  EXPECT_GT(resets, 0);
}

TEST(RoundedMultiLevel, FallbackVictimComesFromTheViolatedSuffix) {
  // At a low beta the reset pass can find class c violated with p_t as its
  // only cached member while the globally cheapest other copy sits in a
  // lighter class. Evicting that copy would leave the suffix violated, so
  // the fallback takes the cheapest copy of a class >= c instead; the
  // paranoid audit checks the reset postcondition after every request.
  // Per-page weights.
  int64_t resets = 0;
  for (const int32_t ell : {2, 3}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      Instance inst(12, 3, ell,
                    MakeWeights(12, ell, WeightModel::kZipfPages, 40.0, seed));
      const Trace t =
          GenZipf(inst, 400, 0.6, LevelMix::UniformMix(ell), seed + 10);
      MultiLevelRoundingOptions opts;
      opts.beta = 1.2;
      opts.paranoid = true;
      RoundedMultiLevel p(MakeFractionalStack(), seed, opts);
      Simulate(t, p);
      resets += p.reset_evictions();
    }
  }
  EXPECT_GT(resets, 0);
}

TEST(RoundedMultiLevel, DemotionsHappenOnReadHeavyTail) {
  // Write-then-read-heavy workload: fractional mass shifts toward cheap
  // copies, so the rounding must issue replace-with-lower-level actions.
  Instance inst(8, 3, 2,
                MakeWeights(8, 2, WeightModel::kGeometricLevels, 8.0, 28));
  std::vector<Request> reqs;
  Rng rng(29);
  for (int i = 0; i < 600; ++i) {
    const PageId p = static_cast<PageId>(rng.NextBounded(8));
    reqs.push_back(Request{p, i < 100 ? 1 : 2});
  }
  Trace t{inst, reqs};
  RoundedMultiLevel p(MakeFractionalStack(), 30);
  std::vector<CacheEvent> log;
  SimOptions opts;
  opts.event_log = &log;
  Simulate(t, p, opts);
  // A demotion shows as evict(level 1) + fetch(level 2) of the same page at
  // the same time stamp.
  bool saw_demotion = false;
  for (size_t i = 0; i + 1 < log.size(); ++i) {
    if (log[i].kind == CacheEvent::Kind::kEvict && log[i].level == 1 &&
        log[i + 1].kind == CacheEvent::Kind::kFetch &&
        log[i + 1].page == log[i].page && log[i + 1].level == 2) {
      saw_demotion = true;
      break;
    }
  }
  EXPECT_TRUE(saw_demotion);
}

TEST(Randomized, FactoryDispatch) {
  Instance single = Instance::Uniform(8, 4);
  PolicyPtr p1 = MakeRandomizedPolicy(1);
  Trace t1{single, {{0, 1}}};
  Simulate(t1, *p1);
  EXPECT_NE(p1->name().find("rounded-ml("), std::string::npos);

  Instance multi(4, 2, 2, MakeWeights(4, 2, WeightModel::kGeometricLevels,
                                      4.0, 31));
  PolicyPtr p2 = MakeRandomizedPolicy(1);
  Trace t2{multi, {{0, 2}}};
  Simulate(t2, *p2);
  EXPECT_NE(p2->name().find("rounded-ml("), std::string::npos);
}

TEST(Randomized, SeparatesFromLruOnLoopAtLargeK) {
  // The k-vs-log^2(k) separation needs k large enough that 4 ln k << k;
  // at k = 64 the randomized ratio must drop well below LRU's ~k. (At
  // k = 8, log^2 k ~ k and no separation is expected — that regime is
  // exercised by the E2 experiment instead.)
  const int32_t k = 64;
  Instance inst = Instance::Uniform(k + 1, k);
  const Trace t = GenLoop(inst, 6000, k + 1, LevelMix::AllLowest(1));
  LruPolicy lru;
  const double lru_cost = Simulate(t, lru).eviction_cost;
  RunningStat rnd;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    PolicyPtr p = MakeRandomizedPolicy(seed);
    rnd.Add(Simulate(t, *p).eviction_cost);
  }
  EXPECT_LT(rnd.mean(), 0.8 * lru_cost);
}

TEST(Randomized, LoopCostBoundedByBetaTimesFractional) {
  // Lemmas 4.11/4.12: expected integral cost <= beta * fractional + O(1) *
  // fractional; checked directly on the adversarial loop where the bound
  // is tight.
  Instance inst = Instance::Uniform(9, 8);
  const Trace t = GenLoop(inst, 3000, 9, LevelMix::AllLowest(1));
  RunningStat rnd;
  double frac = 0.0, beta = 0.0;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    RoundedMultiLevel p(MakeFractionalStack(), seed);
    rnd.Add(Simulate(t, p).eviction_cost);
    frac = p.fractional().lp_cost();
    beta = p.beta();
  }
  ASSERT_GT(frac, 0.0);
  EXPECT_LE(rnd.mean(), (beta + 2.0) * frac + 50.0);
}

TEST(Randomized, RatioBoundedOnSmallExactInstances) {
  // Measured competitive ratio against the exact OPT stays within a very
  // generous O(log^2 k) envelope on random weighted traces.
  Rng seeds(32);
  for (int trial = 0; trial < 3; ++trial) {
    Instance inst(12, 4, 1,
                  MakeWeights(12, 1, WeightModel::kLogUniform, 16.0,
                              seeds.Next()));
    const Trace t = GenZipf(inst, 600, 0.7, LevelMix::AllLowest(1),
                            seeds.Next());
    const Cost opt = WeightedCachingOpt(t);
    if (opt < 1.0) continue;
    RunningStat costs;
    for (uint64_t seed = 0; seed < 4; ++seed) {
      PolicyPtr p = MakeRandomizedPolicy(seed);
      costs.Add(Simulate(t, *p).eviction_cost);
    }
    const double logk = std::log(5.0);
    EXPECT_LE(costs.mean(), 20.0 * logk * logk * opt + 100.0)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace wmlp
