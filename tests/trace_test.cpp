#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "trace/generators.h"
#include "trace/instance.h"
#include "trace/trace.h"
#include "trace/trace_io.h"

namespace wmlp {
namespace {

Instance SmallMlInstance(int32_t n = 6, int32_t k = 3, int32_t ell = 2) {
  return Instance(n, k, ell,
                  std::vector<std::vector<Cost>>(
                      static_cast<size_t>(n), std::vector<Cost>{4.0, 1.0}));
}

TEST(Instance, UniformFactory) {
  const Instance inst = Instance::Uniform(10, 4, 2.5);
  EXPECT_EQ(inst.num_pages(), 10);
  EXPECT_EQ(inst.cache_size(), 4);
  EXPECT_EQ(inst.num_levels(), 1);
  EXPECT_EQ(inst.weight(3, 1), 2.5);
}

TEST(Instance, WeightAccess) {
  const Instance inst = SmallMlInstance();
  EXPECT_EQ(inst.weight(0, 1), 4.0);
  EXPECT_EQ(inst.weight(0, 2), 1.0);
  EXPECT_EQ(inst.max_weight(), 4.0);
  EXPECT_EQ(inst.min_weight(), 1.0);
}

TEST(Instance, ValidityChecks) {
  const Instance inst = SmallMlInstance();
  EXPECT_TRUE(inst.valid_page(0));
  EXPECT_TRUE(inst.valid_page(5));
  EXPECT_FALSE(inst.valid_page(6));
  EXPECT_FALSE(inst.valid_page(-1));
  EXPECT_TRUE(inst.valid_level(1));
  EXPECT_TRUE(inst.valid_level(2));
  EXPECT_FALSE(inst.valid_level(0));
  EXPECT_FALSE(inst.valid_level(3));
}

TEST(Instance, TwoSeparationDetection) {
  EXPECT_TRUE(SmallMlInstance().levels_two_separated());
  Instance tight(2, 1, 2,
                 {{3.0, 2.0}, {3.0, 2.0}});
  EXPECT_FALSE(tight.levels_two_separated());
}

TEST(Instance, MergeLevelsProducesSeparatedInstance) {
  // Levels 8, 5, 4, 1: 8 vs 5 not separated -> 5 merges into 8's slot.
  Instance inst(2, 2, 4, {{8.0, 5.0, 4.0, 1.0}, {8.0, 5.0, 4.0, 1.0}});
  const auto merged = inst.MergeLevels();
  EXPECT_TRUE(merged.instance.levels_two_separated());
  // Every original level maps to a kept level that can serve it with
  // weight less than 2x the original.
  for (PageId p = 0; p < 2; ++p) {
    for (Level i = 1; i <= 4; ++i) {
      const Level m = merged.level_map[static_cast<size_t>(p)]
                                      [static_cast<size_t>(i - 1)];
      ASSERT_GE(m, 1);
      ASSERT_LE(m, merged.instance.num_levels());
      EXPECT_LT(merged.instance.weight(p, m), 2.0 * inst.weight(p, i));
      EXPECT_GE(merged.instance.weight(p, m), inst.weight(p, i));
    }
  }
}

TEST(Instance, MergeLevelsIdentityWhenSeparated) {
  const Instance inst = SmallMlInstance();
  const auto merged = inst.MergeLevels();
  EXPECT_EQ(merged.instance.num_levels(), 2);
  EXPECT_EQ(merged.level_map[0][0], 1);
  EXPECT_EQ(merged.level_map[0][1], 2);
}

TEST(Instance, SelectCopiesRowsInListOrder) {
  const Instance inst(4, 2, 2,
                      {{8.0, 2.0}, {4.0, 1.0}, {16.0, 4.0}, {2.0, 2.0}});
  const std::vector<PageId> pages = {2, 0, 3};
  const Instance sub = inst.Select(pages, 3);
  EXPECT_EQ(sub.num_pages(), 3);
  EXPECT_EQ(sub.cache_size(), 3);
  EXPECT_EQ(sub.num_levels(), 2);
  for (size_t j = 0; j < pages.size(); ++j) {
    for (Level i = 1; i <= 2; ++i) {
      EXPECT_EQ(sub.weight(static_cast<PageId>(j), i),
                inst.weight(pages[j], i));
    }
  }
  // Extremes are the selected rows', not the source's (page 1 owns 1.0).
  EXPECT_EQ(sub.max_weight(), 16.0);
  EXPECT_EQ(sub.min_weight(), 2.0);
  EXPECT_EQ(sub, Instance(3, 3, 2, {{16.0, 4.0}, {8.0, 2.0}, {2.0, 2.0}}));
}

TEST(Instance, SelectOfEveryPageIsTheInstance) {
  const Instance inst = SmallMlInstance(5, 2);
  const std::vector<PageId> all = {0, 1, 2, 3, 4};
  EXPECT_EQ(inst.Select(all, inst.cache_size()), inst);
}

TEST(InstanceDeathTest, SelectRejectsBadArguments) {
  const Instance inst = SmallMlInstance();
  const std::vector<PageId> out_of_range = {0, 6};
  EXPECT_DEATH(inst.Select(out_of_range, 1), "selected page 6 out of range");
  const std::vector<PageId> negative = {-1};
  EXPECT_DEATH(inst.Select(negative, 1), "selected page -1 out of range");
  EXPECT_DEATH(inst.Select(std::vector<PageId>{}, 1), "num_pages >= 1");
  const std::vector<PageId> one = {3};
  EXPECT_DEATH(inst.Select(one, 0), "cache_size >= 1");
}

TEST(Trace, ValidateCatchesBadRequests) {
  Trace t{SmallMlInstance(), {{0, 1}, {5, 2}}};
  std::string err;
  EXPECT_TRUE(ValidateTrace(t, &err)) << err;
  t.requests.push_back({6, 1});
  EXPECT_FALSE(ValidateTrace(t, &err));
  EXPECT_NE(err.find("request 2"), std::string::npos);
}

TEST(Trace, Stats) {
  Trace t{SmallMlInstance(), {{0, 1}, {0, 2}, {1, 2}, {2, 2}}};
  const TraceStats s = ComputeStats(t);
  EXPECT_EQ(s.length, 4);
  EXPECT_EQ(s.distinct_pages, 3);
  EXPECT_NEAR(s.level1_fraction, 0.25, 1e-12);
  EXPECT_NEAR(s.mean_level, 1.75, 1e-12);
  EXPECT_NEAR(s.total_request_weight, 4.0 + 1.0 + 1.0 + 1.0, 1e-12);
}

TEST(Generators, MakeWeightsMonotoneAndSeparated) {
  for (const WeightModel model :
       {WeightModel::kUniform, WeightModel::kGeometricLevels,
        WeightModel::kZipfPages, WeightModel::kLogUniform}) {
    const auto w = MakeWeights(12, 3, model, 16.0, 99);
    ASSERT_EQ(w.size(), 12u);
    for (const auto& row : w) {
      ASSERT_EQ(row.size(), 3u);
      EXPECT_GE(row[2], 1.0);
      for (size_t i = 1; i < row.size(); ++i) {
        EXPECT_GE(row[i - 1], 2.0 * row[i]);  // 2-separated levels
      }
    }
  }
}

TEST(Generators, LevelMixReadWrite) {
  const LevelMix m = LevelMix::ReadWrite(0.25);
  ASSERT_EQ(m.probs.size(), 2u);
  EXPECT_NEAR(m.probs[0], 0.25, 1e-12);
  EXPECT_NEAR(m.probs[1], 0.75, 1e-12);
}

TEST(Generators, LevelMixGeometricNormalized) {
  const LevelMix m = LevelMix::Geometric(4, 0.5);
  double sum = 0.0;
  for (double p : m.probs) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // Bottom-heavy by default: level 4 most probable.
  EXPECT_GT(m.probs[3], m.probs[0]);
}

TEST(Generators, LevelMixGeometricLargeDecayStaysFinite) {
  // decay^7 overflows to inf at 1e300; the mix must still put its mass on
  // level 1, the largest term.
  const LevelMix m = LevelMix::Geometric(8, 1e300);
  double sum = 0.0;
  for (double p : m.probs) {
    EXPECT_TRUE(std::isfinite(p));
    sum += p;
  }
  EXPECT_DOUBLE_EQ(sum, 1.0);
  EXPECT_DOUBLE_EQ(m.probs[0], 1.0);
}

TEST(Generators, ZipfTraceValidAndSkewed) {
  Instance inst(32, 8, 1, MakeWeights(32, 1, WeightModel::kUniform, 1.0, 0));
  const Trace t = GenZipf(inst, 20000, 1.0, LevelMix::AllLowest(1), 5);
  EXPECT_TRUE(ValidateTrace(t));
  EXPECT_EQ(t.length(), 20000);
  // Page 0 strictly more frequent than page 31 under zipf(1).
  int64_t c0 = 0, c31 = 0;
  for (const Request& r : t.requests) {
    if (r.page == 0) ++c0;
    if (r.page == 31) ++c31;
  }
  EXPECT_GT(c0, 4 * c31);
}

TEST(Generators, ZipfTraceDeterministicInSeed) {
  Instance inst = Instance::Uniform(16, 4);
  const Trace a = GenZipf(inst, 500, 0.7, LevelMix::AllLowest(1), 42);
  const Trace b = GenZipf(inst, 500, 0.7, LevelMix::AllLowest(1), 42);
  EXPECT_EQ(a.requests, b.requests);
}

TEST(Generators, LoopTraceCycles) {
  Instance inst = Instance::Uniform(10, 4);
  const Trace t = GenLoop(inst, 25, 5, LevelMix::AllLowest(1));
  for (Time i = 0; i < t.length(); ++i) {
    EXPECT_EQ(t.requests[static_cast<size_t>(i)].page,
              static_cast<PageId>(i % 5));
  }
}

TEST(Generators, PhasesStayInWorkingSet) {
  Instance inst = Instance::Uniform(64, 8);
  const Trace t = GenPhases(inst, 1000, 10, 100, 0.5,
                            LevelMix::AllLowest(1), 7);
  EXPECT_TRUE(ValidateTrace(t));
  // Each phase touches at most 10 distinct pages.
  for (int64_t phase = 0; phase < 10; ++phase) {
    std::set<PageId> pages;
    for (int64_t i = phase * 100; i < (phase + 1) * 100; ++i) {
      pages.insert(t.requests[static_cast<size_t>(i)].page);
    }
    EXPECT_LE(pages.size(), 10u);
  }
}

TEST(Generators, ScanMixValid) {
  Instance inst = Instance::Uniform(50, 10);
  const Trace t =
      GenScanMix(inst, 2000, 0.8, 20, 0.05, LevelMix::AllLowest(1), 3);
  EXPECT_TRUE(ValidateTrace(t));
  EXPECT_EQ(t.length(), 2000);
}

TEST(Generators, MarkovValidAndLocal) {
  Instance inst = Instance::Uniform(100, 10);
  const Trace t =
      GenMarkov(inst, 5000, 0.8, 8, 0.6, LevelMix::AllLowest(1), 5);
  EXPECT_TRUE(ValidateTrace(t));
  // High stay probability => many immediate repeats within window.
  int64_t repeats = 0;
  for (size_t i = 1; i < t.requests.size(); ++i) {
    if (t.requests[i].page == t.requests[i - 1].page) ++repeats;
  }
  EXPECT_GT(repeats, 100);
}

TEST(Generators, WeightedAdversaryShape) {
  const Trace t = GenWeightedAdversary(8, 1000, 64.0, 9);
  EXPECT_TRUE(ValidateTrace(t));
  EXPECT_EQ(t.instance.num_pages(), 9);
  EXPECT_EQ(t.instance.cache_size(), 8);
  EXPECT_NEAR(t.instance.weight(8, 1), 64.0, 1e-9);
  EXPECT_NEAR(t.instance.weight(0, 1), 1.0, 1e-9);
}

TEST(Generators, MultiGranularityShape) {
  const Trace t = GenMultiGranularity(8, 4, 8, 3000, 0.2, 0.8, 13);
  EXPECT_TRUE(ValidateTrace(t));
  EXPECT_EQ(t.instance.num_pages(), 32);
  EXPECT_EQ(t.instance.num_levels(), 2);
  EXPECT_GE(t.instance.weight(0, 1), 2.0 * t.instance.weight(0, 2));
  const TraceStats s = ComputeStats(t);
  EXPECT_NEAR(s.level1_fraction, 0.2, 0.05);
}

TEST(Generators, WriteBurstsAreBursty) {
  Instance inst(32, 8, 2,
                MakeWeights(32, 2, WeightModel::kGeometricLevels, 8.0, 1));
  const Trace t = GenWriteBursts(inst, 20000, 0.8, 0.05, 0.9, 2);
  EXPECT_TRUE(ValidateTrace(t));
  // Stationary write fraction for the 2-state chain: s/(s + (1-p)) with
  // start s=0.05, stay p=0.9 -> 1/3.
  const TraceStats s = ComputeStats(t);
  EXPECT_NEAR(s.level1_fraction, 1.0 / 3.0, 0.05);
  // Burstiness: P(write | previous write) must be near `burst_stay`, far
  // above the marginal write rate.
  int64_t ww = 0, w_total = 0;
  for (size_t i = 1; i < t.requests.size(); ++i) {
    if (t.requests[i - 1].level == 1) {
      ++w_total;
      if (t.requests[i].level == 1) ++ww;
    }
  }
  EXPECT_NEAR(static_cast<double>(ww) / static_cast<double>(w_total), 0.9,
              0.03);
}

TEST(Generators, WriteBurstsRequireTwoLevels) {
  Instance inst = Instance::Uniform(4, 2);
  EXPECT_DEATH(GenWriteBursts(inst, 10, 0.5, 0.1, 0.9, 1), "ell = 2");
}

TEST(TraceIo, RoundTrip) {
  Instance inst(4, 2, 2, {{8.0, 2.0}, {4.0, 1.0}, {4.0, 2.0}, {2.0, 1.0}});
  Trace t{inst, {{0, 1}, {1, 2}, {3, 2}, {2, 1}}};
  const std::string text = TraceToString(t);
  std::string err;
  const auto back = TraceFromString(text, &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->instance, t.instance);
  EXPECT_EQ(back->requests, t.requests);
}

TEST(TraceIo, RejectsBadMagic) {
  std::string err;
  EXPECT_FALSE(TraceFromString("garbage\n", &err).has_value());
  EXPECT_NE(err.find("magic"), std::string::npos);
}

TEST(TraceIo, RejectsNonMonotoneWeights) {
  const std::string text =
      "wmlp-trace v1\n2 1 2\n1 2\n2 1\n0\n";
  std::string err;
  EXPECT_FALSE(TraceFromString(text, &err).has_value());
}

TEST(TraceIo, RejectsOutOfRangeRequest) {
  const std::string text =
      "wmlp-trace v1\n2 1 1\n1\n1\n1\n5 1\n";
  std::string err;
  EXPECT_FALSE(TraceFromString(text, &err).has_value());
}

TEST(TraceIo, RejectsTruncated) {
  const std::string text = "wmlp-trace v1\n2 1 1\n1\n1\n3\n0 1\n";
  std::string err;
  EXPECT_FALSE(TraceFromString(text, &err).has_value());
}

TEST(ApplyLevelMapTest, RemapsRequests) {
  Instance inst(2, 1, 3, {{8.0, 5.0, 1.0}, {8.0, 5.0, 1.0}});
  const auto merged = inst.MergeLevels();
  Trace t{inst, {{0, 2}, {1, 3}}};
  const Trace mapped = ApplyLevelMap(t, merged.instance, merged.level_map);
  EXPECT_TRUE(ValidateTrace(mapped));
  EXPECT_EQ(mapped.requests.size(), 2u);
  // Level 2 (w=5, not separated from 8) maps to merged level 1.
  EXPECT_EQ(mapped.requests[0].level, 1);
}

}  // namespace
}  // namespace wmlp
