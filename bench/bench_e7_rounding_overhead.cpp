// E7 (Figure 4): rounding overhead and the beta ablation.
//
// The rounding is O(log k)-competitive against the fractional solution
// (Theorem 1.4 says Omega(log k) is unavoidable for any
// fractional-then-round scheme). This experiment sweeps the
// aggressiveness beta and reports integral cost / fractional cost plus the
// number of reset evictions.
//
// Expected shape: local-rule cost grows ~linearly in beta while reset
// evictions collapse as beta passes ~log k; the paper's 4 ln k choice
// makes resets negligible (the worst-case-safe point), while smaller beta
// can win on benign traces — the constant-factor trade the theory hides.
// The fractional cost is the stack's own, on the class-ceiling weights it
// runs on; the integral cost is at the real weights.
#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "core/randomized.h"
#include "core/rounding_multilevel.h"
#include "offline/weighted_opt.h"
#include "sim/simulator.h"
#include "trace/generators.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace wmlp;
  const bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  const int32_t k = 16;
  const int32_t trials = args.quick ? 2 : 4;
  const double beta_star = 4.0 * std::log(static_cast<double>(k) + 1.0);

  struct Workload {
    std::string name;
    Trace trace;
  };
  std::vector<Workload> workloads;
  {
    Instance inst(64, k, 1,
                  MakeWeights(64, 1, WeightModel::kLogUniform, 16.0, 1));
    workloads.push_back(
        {"zipf", GenZipf(inst, args.Scale(8000, 1500), 0.8,
                         LevelMix::AllLowest(1), 2)});
  }
  {
    Instance inst = Instance::Uniform(k + 1, k);
    workloads.push_back({"loop", GenLoop(inst, args.Scale(8000, 1500),
                                         k + 1, LevelMix::AllLowest(1))});
  }
  {
    Instance inst(48, k, 2,
                  MakeWeights(48, 2, WeightModel::kGeometricLevels, 8.0, 3));
    workloads.push_back(
        {"zipf-2level", GenZipf(inst, args.Scale(8000, 1500), 0.8,
                                LevelMix::UniformMix(2), 4)});
  }

  Table table({"workload", "beta", "frac-cost", "int/frac", "resets",
               "int/OPT-LB"});
  for (const auto& [name, trace] : workloads) {
    const Cost opt_lb = MultiLevelLowerBound(trace);
    for (double beta : {1.0, 2.0, 4.0, 8.0, beta_star, 2.0 * beta_star}) {
      RunningStat int_cost;
      RunningStat resets;
      double frac_cost = 0.0;
      for (int s = 0; s < trials; ++s) {
        MultiLevelRoundingOptions ro;
        ro.beta = beta;
        RoundedMultiLevel p(MakeFractionalStack(), static_cast<uint64_t>(s),
                            ro);
        int_cost.Add(Simulate(trace, p).eviction_cost);
        resets.Add(static_cast<double>(p.reset_evictions()));
        frac_cost = p.fractional().lp_cost();
      }
      table.AddRow({name, Fmt(beta, 1), Fmt(frac_cost, 0),
                    Fmt(int_cost.mean() / frac_cost, 2),
                    Fmt(resets.mean(), 0),
                    opt_lb > 0 ? Fmt(int_cost.mean() / opt_lb, 2) : "-"});
    }
  }
  bench::EmitTable(args, "e7", "beta_ablation", table);
  std::cout << "\nbeta* = 4 ln(k+1) = " << Fmt(beta_star, 2)
            << " is the paper's worst-case-safe setting (k = " << k
            << ").\n";
  return 0;
}
