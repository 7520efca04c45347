// E12 (Table 5): multi-level paging (ell = 2) workload suite — the
// multi-level analog of E1 with sandwich offline bounds.
//
// Cells are cost/LB with the [cost/UB] lower estimate in brackets where
// bounds differ; the randomized column replays one fractional trajectory
// under several rounding seeds.
#include <iostream>

#include "baselines/clock.h"
#include "baselines/landlord.h"
#include "baselines/lru.h"
#include "baselines/sieve.h"
#include "baselines/two_q.h"
#include "bench_util.h"
#include "core/randomized.h"
#include "core/waterfill.h"
#include "harness/experiment.h"
#include "harness/thread_pool.h"
#include "offline/bounds.h"
#include "trace/analysis.h"
#include "trace/generators.h"
#include "util/stats.h"

namespace wmlp {
namespace {

std::vector<std::pair<std::string, Trace>> MakeSuite(
    const bench::BenchArgs& args) {
  const int32_t n = 64;
  const int32_t k = 8;
  const int64_t T = args.Scale(12000, 2000);
  const auto weights = [&](uint64_t seed) {
    return MakeWeights(n, 2, WeightModel::kGeometricLevels, 8.0, seed);
  };
  std::vector<std::pair<std::string, Trace>> suite;
  suite.emplace_back("zipf-rw30",
                     GenZipf(Instance(n, k, 2, weights(1)), T, 0.8,
                             LevelMix::ReadWrite(0.3), 2));
  suite.emplace_back("zipf-rw70",
                     GenZipf(Instance(n, k, 2, weights(3)), T, 0.8,
                             LevelMix::ReadWrite(0.7), 4));
  suite.emplace_back("phases",
                     GenPhases(Instance(n, k, 2, weights(5)), T, 12, 600,
                               0.7, LevelMix::UniformMix(2), 6));
  suite.emplace_back("markov",
                     GenMarkov(Instance(n, k, 2, weights(7)), T, 0.7, 12,
                               0.8, LevelMix::UniformMix(2), 8));
  suite.emplace_back("scan-mix",
                     GenScanMix(Instance(n, k, 2, weights(9)), T, 0.9, 24,
                                0.02, LevelMix::UniformMix(2), 10));
  suite.emplace_back(
      "multigran",
      GenMultiGranularity(n / 8, 8, k, T, 0.15, 0.9, 11));
  suite.emplace_back("write-bursts",
                     GenWriteBursts(Instance(n, k, 2, weights(12)), T, 0.8,
                                    0.05, 0.9, 13));
  {
    // Multi-tenant composite: a zipf tenant, a scan-heavy tenant, and a
    // small looping tenant share one cache.
    const int32_t tn = n / 4;
    std::vector<Trace> tenants;
    tenants.push_back(GenZipf(Instance(tn, k, 2, MakeWeights(
                                  tn, 2, WeightModel::kGeometricLevels,
                                  8.0, 14)),
                              T / 2, 0.9, LevelMix::UniformMix(2), 15));
    tenants.push_back(GenScanMix(Instance(tn, k, 2, MakeWeights(
                                     tn, 2, WeightModel::kGeometricLevels,
                                     8.0, 16)),
                                 T / 3, 0.7, 12, 0.05,
                                 LevelMix::UniformMix(2), 17));
    tenants.push_back(GenLoop(Instance(tn, k, 2, MakeWeights(
                                  tn, 2, WeightModel::kGeometricLevels,
                                  8.0, 18)),
                              T / 6, k / 2 + 1, LevelMix::UniformMix(2)));
    suite.emplace_back("tenant-mix",
                       MixTraces(tenants, {3.0, 2.0, 1.0}, k, 19));
  }
  return suite;
}

}  // namespace
}  // namespace wmlp

int main(int argc, char** argv) {
  using namespace wmlp;
  const bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  const int32_t trials = args.quick ? 2 : 5;
  ThreadPool pool;

  Table table({"workload", "LB", "UB", "lru", "clock", "sieve", "2q",
               "landlord", "waterfill", "randomized"});
  for (const auto& [name, trace] : MakeSuite(args)) {
    const OfflineBounds b = ComputeOfflineBounds(trace);
    if (b.lower <= 0.0) continue;
    auto ratio = [&](Policy& p) {
      return Simulate(trace, p).eviction_cost / b.lower;
    };
    LruPolicy lru;
    ClockPolicy clock;
    SievePolicy sieve;
    TwoQPolicy two_q;
    LandlordPolicy landlord;
    WaterfillPolicy waterfill;
    const PolicyFactory factory = [](uint64_t seed) {
      return MakeRandomizedPolicy(seed);
    };
    const auto rnd_trials = RunTrials(pool, trace, factory, trials, 17);
    RunningStat rnd;
    for (const auto& r : rnd_trials) rnd.Add(r.eviction_cost / b.lower);
    table.AddRow({name, Fmt(b.lower, 0), Fmt(b.upper, 0), Fmt(ratio(lru), 2),
                  Fmt(ratio(clock), 2), Fmt(ratio(sieve), 2),
                  Fmt(ratio(two_q), 2), Fmt(ratio(landlord), 2),
                  Fmt(ratio(waterfill), 2), Fmt(rnd.mean(), 2)});
  }
  bench::EmitTable(args, "e12", "multilevel_suite", table);
  std::cout << "\nCells are eviction cost / offline lower bound "
               "(n = 64, k = 8, ell = 2); [LB, UB] is the offline bound "
               "sandwich, so true ratios are smaller by up to UB/LB.\n";
  return 0;
}
