// E10 (Figure 6): discretization ablation (Lemma 4.5).
//
// The rounding analysis charges reset probability against a minimum
// fractional movement of delta = 1/(4k); Lemma 4.5 claims snapping the
// fractional solution to the delta-grid costs at most a factor 2. This
// sweeps delta and reports (a) the discretized fractional cost relative to
// the exact fractional cost and (b) the rounded integral cost and resets.
//
// Expected shape: fractional inflation stays below 2x down to coarse
// grids; rounding quality is insensitive to delta until the grid gets very
// coarse (delta ~ 1/k).
//
// The fractional costs are the stack's own, on the class-ceiling weights
// the randomized policy attaches it to; the rounded costs are at the real
// weights.
#include <iostream>

#include "bench_util.h"
#include "core/discretize.h"
#include "core/randomized.h"
#include "core/rounding_multilevel.h"
#include "core/weight_classes.h"
#include "sim/simulator.h"
#include "trace/generators.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace wmlp;
  const bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  const int32_t k = 16;
  const int32_t trials = args.quick ? 2 : 4;
  const double dk = static_cast<double>(k);

  Instance inst(64, k, 1,
                MakeWeights(64, 1, WeightModel::kLogUniform, 16.0, 1));
  const Trace trace = GenZipf(inst, args.Scale(8000, 1500), 0.8,
                              LevelMix::AllLowest(1), 2);

  // Exact fractional cost (no discretization).
  FractionalMlp exact;
  const ClassCeilingInstance stack_inst(inst);
  exact.Attach(stack_inst.get());
  for (Time t = 0; t < trace.length(); ++t) {
    exact.Serve(t, trace.requests[static_cast<size_t>(t)]);
  }
  const Cost exact_cost = exact.lp_cost();

  Table table({"delta", "frac-cost", "frac/exact", "rounded", "resets"});
  struct DeltaCase {
    std::string label;
    double delta;  // < 0: no discretization
  };
  for (const DeltaCase& dc :
       {DeltaCase{"exact", -1.0}, DeltaCase{"1/(16k)", 1.0 / (16.0 * dk)},
        DeltaCase{"1/(4k)", 1.0 / (4.0 * dk)},
        DeltaCase{"1/k", 1.0 / dk}, DeltaCase{"1/4", 0.25}}) {
    // Fractional cost at this grid.
    Cost frac_cost;
    if (dc.delta < 0.0) {
      frac_cost = exact_cost;
    } else {
      DiscretizedFractional disc(std::make_unique<FractionalMlp>(),
                                 dc.delta);
      disc.Attach(stack_inst.get());
      for (Time t = 0; t < trace.length(); ++t) {
        disc.Serve(t, trace.requests[static_cast<size_t>(t)]);
      }
      frac_cost = disc.lp_cost();
    }
    // Rounded cost at this grid.
    RunningStat rounded, resets;
    for (int s = 0; s < trials; ++s) {
      RandomizedOptions ro;
      ro.delta = dc.delta;
      FractionalPolicyPtr stack = MakeFractionalStack(ro);
      RoundedMultiLevel p(std::move(stack), static_cast<uint64_t>(s));
      rounded.Add(Simulate(trace, p).eviction_cost);
      resets.Add(static_cast<double>(p.reset_evictions()));
    }
    table.AddRow({dc.label, Fmt(frac_cost, 0),
                  Fmt(frac_cost / exact_cost, 3), Fmt(rounded.mean(), 0),
                  Fmt(resets.mean(), 1)});
  }
  bench::EmitTable(args, "e10", "delta_ablation", table);
  std::cout << "\nLemma 4.5 predicts frac/exact <= 2 at delta = 1/(4k); "
            << "k = " << k << ".\n";
  return 0;
}
