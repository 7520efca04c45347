// Distribution-equality battery for the threshold rounding.
//
// core/rounding_multilevel.h replaces the stepwise Algorithm 2 — a
// conditional Bernoulli per moved boundary per step — with one uniform
// threshold per placed copy and a fractional watch. The two must agree in
// distribution, not merely both pass the feasibility checks, so this file
// runs the stepwise form (tests/rounding_oracle.h) and the library's
// rounding over 2000 fixed seeds each on small instances — ell in
// {1, 2, 3}, k <= 4 so that resets fire, geometric and log-uniform
// weights, Zipf and loop traces — and chi-square-tests:
//   - the number of evictions at every request,
//   - every page's final cached level,
//   - the number of reset evictions per run,
//   - the number of evictions per run.
// Each table is a two-sample homogeneity test; the family-wise false-alarm
// rate over the whole battery is 1e-3 (Bonferroni), and with fixed seeds
// the outcome is deterministic. A perturbed rounding (beta off by 25%)
// must fail the same battery, which shows the tests have power.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/randomized.h"
#include "core/rounding_multilevel.h"
#include "rounding_oracle.h"
#include "sim/cache_state.h"
#include "sim/policy.h"
#include "trace/generators.h"

namespace wmlp {
namespace {

constexpr int kSeeds = 2000;
constexpr double kFamilyAlpha = 1e-3;
constexpr int64_t kTraceLength = 120;

struct BatteryCase {
  std::string name;
  int32_t n;
  int32_t k;
  int32_t ell;
  WeightModel weights;
  bool loop;      // loop over k + 1 pages, else Zipf(0.7)
  double beta;    // 0 -> the default 4 ln(k + 1)
};

// gtest prints a failing parameter by name instead of as raw bytes.
void PrintTo(const BatteryCase& c, std::ostream* os) { *os << c.name; }

Trace MakeCaseTrace(const BatteryCase& c) {
  const double ratio = c.weights == WeightModel::kLogUniform ? 16.0 : 4.0;
  Instance inst(c.n, c.k, c.ell,
                MakeWeights(c.n, c.ell, c.weights, ratio, 3));
  const LevelMix mix =
      c.ell == 1 ? LevelMix::AllLowest(1) : LevelMix::UniformMix(c.ell);
  return c.loop ? GenLoop(inst, kTraceLength, c.k + 1, mix)
                : GenZipf(inst, kTraceLength, 0.7, mix, 5);
}

// One run's observables.
struct RunStats {
  std::vector<int64_t> evictions_at;  // per request
  std::vector<Level> final_level;     // per page
  int64_t resets = 0;
  int64_t evictions = 0;
};

template <typename P>
RunStats RunOnce(const Trace& trace, P& policy) {
  const Instance& inst = trace.instance;
  CacheState cache(inst);
  CacheOps ops(inst, cache);
  policy.Attach(inst);
  RunStats stats;
  stats.evictions_at.resize(trace.requests.size());
  for (Time t = 0; t < trace.length(); ++t) {
    const Request& r = trace.requests[static_cast<size_t>(t)];
    ops.set_time(t);
    const int64_t before = ops.evictions();
    policy.Serve(t, r, ops);
    stats.evictions_at[static_cast<size_t>(t)] = ops.evictions() - before;
    EXPECT_TRUE(cache.serves(r));
    EXPECT_LE(cache.size(), inst.cache_size());
  }
  for (PageId p = 0; p < inst.num_pages(); ++p) {
    stats.final_level.push_back(cache.level_of(p));
  }
  stats.resets = policy.reset_evictions();
  stats.evictions = ops.evictions();
  return stats;
}

// Category counts of one observable across runs.
using Histogram = std::map<int64_t, int64_t>;

// Two-sample chi-square homogeneity test on equal-size samples. Sparse
// categories (fewer than 10 observations in both samples together) are
// pooled into one; a pooled bucket still under 10 is dropped.
struct ChiSquare {
  double stat = 0.0;
  int df = 0;
};

ChiSquare Homogeneity(const Histogram& a, const Histogram& b) {
  std::map<int64_t, std::pair<int64_t, int64_t>> cells;
  for (const auto& [key, count] : a) cells[key].first += count;
  for (const auto& [key, count] : b) cells[key].second += count;
  std::vector<std::pair<int64_t, int64_t>> kept;
  std::pair<int64_t, int64_t> pooled{0, 0};
  for (const auto& [key, ab] : cells) {
    if (ab.first + ab.second >= 10) {
      kept.push_back(ab);
    } else {
      pooled.first += ab.first;
      pooled.second += ab.second;
    }
  }
  if (pooled.first + pooled.second >= 10) kept.push_back(pooled);
  ChiSquare out;
  for (const auto& [x, y] : kept) {
    const double d = static_cast<double>(x - y);
    out.stat += d * d / static_cast<double>(x + y);
  }
  out.df = static_cast<int>(kept.size()) - 1;
  return out;
}

// Upper-tail standard normal quantile by bisection on erfc.
double NormalUpperQuantile(double alpha) {
  double lo = 0.0;
  double hi = 40.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (0.5 * std::erfc(mid / std::sqrt(2.0)) > alpha) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

// Chi-square critical value at upper-tail level alpha (Wilson-Hilferty).
double ChiSquareCritical(int df, double alpha) {
  const double z = NormalUpperQuantile(alpha);
  const double v = 2.0 / (9.0 * df);
  return df * std::pow(1.0 - v + z * std::sqrt(v), 3.0);
}

// Every observable of the two samples as one list of named tables.
struct Table {
  std::string label;
  Histogram a;
  Histogram b;
};

std::vector<Table> BuildTables(const std::vector<RunStats>& a,
                               const std::vector<RunStats>& b) {
  std::vector<Table> tables;
  const size_t len = a.front().evictions_at.size();
  const size_t pages = a.front().final_level.size();
  auto add = [&](const std::string& label,
                 const std::function<int64_t(const RunStats&)>& f) {
    Table table{label, {}, {}};
    for (const RunStats& s : a) ++table.a[f(s)];
    for (const RunStats& s : b) ++table.b[f(s)];
    tables.push_back(std::move(table));
  };
  for (size_t t = 0; t < len; ++t) {
    add("evictions at t=" + std::to_string(t), [t](const RunStats& s) {
      return std::min<int64_t>(s.evictions_at[t], 3);
    });
  }
  for (size_t p = 0; p < pages; ++p) {
    add("final level of page " + std::to_string(p),
        [p](const RunStats& s) { return s.final_level[p]; });
  }
  add("resets per run", [](const RunStats& s) { return s.resets; });
  add("evictions per run", [](const RunStats& s) { return s.evictions; });
  return tables;
}

std::vector<RunStats> RunOracle(const Trace& trace, double beta,
                                uint64_t seed0) {
  std::vector<RunStats> runs;
  for (int s = 0; s < kSeeds; ++s) {
    testing::StepwiseRoundingOracle oracle(
        MakeFractionalStack(), seed0 + static_cast<uint64_t>(s), beta);
    runs.push_back(RunOnce(trace, oracle));
  }
  return runs;
}

std::vector<RunStats> RunThreshold(const Trace& trace, double beta,
                                   uint64_t seed0) {
  std::vector<RunStats> runs;
  MultiLevelRoundingOptions opts;
  opts.beta = beta;
  for (int s = 0; s < kSeeds; ++s) {
    RoundedMultiLevel policy(MakeFractionalStack(),
                             seed0 + static_cast<uint64_t>(s), opts);
    runs.push_back(RunOnce(trace, policy));
  }
  return runs;
}

const std::vector<BatteryCase>& Cases() {
  static const std::vector<BatteryCase> cases = {
      {"l1_zipf_loguniform", 6, 3, 1, WeightModel::kLogUniform, false, 0.0},
      {"l1_loop_geometric", 5, 4, 1, WeightModel::kGeometricLevels, true,
       0.0},
      {"l1_loop_uniform_lowbeta", 5, 4, 1, WeightModel::kUniform, true, 1.2},
      {"l2_zipf_geometric", 6, 2, 2, WeightModel::kGeometricLevels, false,
       0.0},
      {"l2_loop_loguniform", 5, 3, 2, WeightModel::kLogUniform, true, 0.0},
      {"l2_zipf_loguniform_lowbeta", 6, 3, 2, WeightModel::kLogUniform, false,
       1.5},
      {"l3_zipf_geometric", 6, 3, 3, WeightModel::kGeometricLevels, false,
       0.0},
      {"l3_loop_loguniform", 5, 4, 3, WeightModel::kLogUniform, true, 0.0},
  };
  return cases;
}

// Number of tables across the whole battery, for the Bonferroni split:
// per case, one per request, one per page, resets and evictions.
int BatteryTables() {
  int total = 0;
  for (const BatteryCase& c : Cases()) {
    total += static_cast<int>(kTraceLength) + c.n + 2;
  }
  return total;
}

// Largest statistic-to-critical ratio over the tables (> 1 is a rejection)
// and the label of that table.
std::pair<double, std::string> WorstTable(const std::vector<RunStats>& a,
                                          const std::vector<RunStats>& b) {
  const double alpha = kFamilyAlpha / static_cast<double>(BatteryTables());
  std::pair<double, std::string> worst{0.0, ""};
  for (const Table& table : BuildTables(a, b)) {
    const ChiSquare chi = Homogeneity(table.a, table.b);
    if (chi.df < 1) continue;  // degenerate: one category in both samples
    const double ratio = chi.stat / ChiSquareCritical(chi.df, alpha);
    if (ratio > worst.first) worst = {ratio, table.label};
  }
  return worst;
}

class RoundingDistribution : public ::testing::TestWithParam<BatteryCase> {};

TEST_P(RoundingDistribution, ThresholdRoundingMatchesStepwiseOracle) {
  const BatteryCase& c = GetParam();
  const Trace trace = MakeCaseTrace(c);
  const std::vector<RunStats> oracle = RunOracle(trace, c.beta, 0);
  const std::vector<RunStats> threshold =
      RunThreshold(trace, c.beta, 1u << 20);
  const auto [ratio, label] = WorstTable(oracle, threshold);
  EXPECT_LT(ratio, 1.0) << "distributions differ on " << label
                        << " (chi-square / critical = " << ratio << ")";
  // Both samples actually evict, so the tables carry information.
  int64_t evictions = 0;
  for (const RunStats& s : threshold) evictions += s.evictions;
  EXPECT_GT(evictions, kSeeds);
}

INSTANTIATE_TEST_SUITE_P(Battery, RoundingDistribution,
                         ::testing::ValuesIn(Cases()),
                         [](const auto& info) { return info.param.name; });

TEST(RoundingDistributionBattery, ResetsFireOnTheLowBetaCases) {
  // The reset pass is part of what the battery compares: on the low-beta
  // cases it must actually fire, in both forms.
  for (const BatteryCase& c : Cases()) {
    if (c.beta == 0.0) continue;
    const Trace trace = MakeCaseTrace(c);
    int64_t oracle_resets = 0;
    int64_t threshold_resets = 0;
    for (const RunStats& s : RunOracle(trace, c.beta, 0)) {
      oracle_resets += s.resets;
    }
    for (const RunStats& s : RunThreshold(trace, c.beta, 1u << 20)) {
      threshold_resets += s.resets;
    }
    EXPECT_GT(oracle_resets, 100) << c.name;
    EXPECT_GT(threshold_resets, 100) << c.name;
  }
}

TEST(RoundingDistributionBattery, DetectsAPerturbedRounding) {
  // Power: the same battery rejects a rounding whose beta is off by 25%.
  const BatteryCase& c = Cases()[3];  // l2_zipf_geometric
  const Trace trace = MakeCaseTrace(c);
  const double beta = 4.0 * std::log(static_cast<double>(c.k) + 1.0);
  const std::vector<RunStats> oracle = RunOracle(trace, beta, 0);
  const std::vector<RunStats> perturbed =
      RunThreshold(trace, 1.25 * beta, 1u << 20);
  EXPECT_GT(WorstTable(oracle, perturbed).first, 1.0);
}

TEST(RoundingDistributionBattery, DeterministicPerSeed) {
  for (const BatteryCase& c : Cases()) {
    const Trace trace = MakeCaseTrace(c);
    MultiLevelRoundingOptions opts;
    opts.beta = c.beta;
    for (uint64_t seed = 0; seed < 20; ++seed) {
      RoundedMultiLevel first(MakeFractionalStack(), seed, opts);
      RoundedMultiLevel second(MakeFractionalStack(), seed, opts);
      const RunStats a = RunOnce(trace, first);
      const RunStats b = RunOnce(trace, second);
      EXPECT_EQ(a.evictions_at, b.evictions_at) << c.name;
      EXPECT_EQ(a.final_level, b.final_level) << c.name;
      EXPECT_EQ(a.resets, b.resets) << c.name;
    }
  }
}

}  // namespace
}  // namespace wmlp
