// E13 (Table 6): the rounding is engine-agnostic (Section 4.3's
// "independent of the way the fractional solution is generated").
//
// Pairs the identical distribution-free rounding with two fractional
// engines — the paper's O(log k) multiplicative update and the Theta(k)
// linear water-filling — and compares fractional costs, rounded costs,
// and wall-clock per request.
//
// Expected shape: on benign traces both engines give similar fractional
// costs and the rounding tracks each at the same int/frac multiple; on
// the adversarial loop the multiplicative engine's fractional advantage
// (log k vs k) carries straight through the rounding. Speed is not a
// reason to pick the linear engine: the multiplicative one runs through
// the output-sensitive FractionalMlp and is as fast or faster here, while
// the linear water-filling scans every page per segment. frac/OPT is the
// stack's own cost, on the class-ceiling weights the policy runs it on.
#include <chrono>
#include <iostream>

#include "bench_util.h"
#include "core/randomized.h"
#include "core/weight_classes.h"
#include "engine/engine.h"
#include "offline/weighted_opt.h"
#include "registry/policy_registry.h"
#include "trace/generators.h"
#include "util/stats.h"

namespace wmlp {
namespace {

struct EngineRun {
  double frac_over_opt = 0.0;
  double rounded_over_opt = 0.0;
  double us_per_request = 0.0;
};

// The rounded policy comes from the registry by name and runs through the
// engine (the production serve loop); the bare fractional cost is recorded
// separately from the same stack the registry would build.
EngineRun RunEngine(const Trace& trace, FractionalEngine engine,
                    int32_t trials, Cost opt) {
  RandomizedOptions opts;
  opts.engine = engine;
  const std::string name = engine == FractionalEngine::kLinear
                               ? "randomized:engine=linear"
                               : "randomized";
  EngineRun out;
  RunningStat rounded;
  const auto start = std::chrono::steady_clock::now();
  for (int32_t s = 0; s < trials; ++s) {
    PolicyPtr p = MakePolicyByName(name, static_cast<uint64_t>(s));
    TraceSource source(trace);
    Engine run(source, *p);
    rounded.Add(run.Run().eviction_cost);
  }
  const auto end = std::chrono::steady_clock::now();
  FractionalPolicyPtr frac = MakeFractionalStack(opts);
  const ClassCeilingInstance stack_inst(trace.instance);
  frac->Attach(stack_inst.get());
  for (Time t = 0; t < trace.length(); ++t) {
    frac->Serve(t, trace.requests[static_cast<size_t>(t)]);
  }
  out.frac_over_opt = frac->lp_cost() / opt;
  out.rounded_over_opt = rounded.mean() / opt;
  out.us_per_request =
      std::chrono::duration<double, std::micro>(end - start).count() /
      static_cast<double>(trace.length() * trials);
  return out;
}

}  // namespace
}  // namespace wmlp

int main(int argc, char** argv) {
  using namespace wmlp;
  const bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  const int32_t trials = args.quick ? 2 : 3;

  struct Workload {
    std::string name;
    Trace trace;
  };
  std::vector<Workload> workloads;
  {
    Instance inst(64, 16, 1,
                  MakeWeights(64, 1, WeightModel::kLogUniform, 16.0, 1));
    workloads.push_back({"zipf", GenZipf(inst, args.Scale(8000, 1500), 0.8,
                                         LevelMix::AllLowest(1), 2)});
  }
  {
    Instance inst = Instance::Uniform(65, 64);
    workloads.push_back({"loop-k64", GenLoop(inst, args.Scale(6000, 1500),
                                             65, LevelMix::AllLowest(1))});
  }
  { workloads.push_back({"weighted-adv",
                         GenWeightedAdversary(16, args.Scale(8000, 1500),
                                              64.0, 3)}); }

  Table table({"workload", "engine", "frac/OPT", "rounded/OPT", "us/req"});
  for (const auto& [name, trace] : workloads) {
    const Cost opt = WeightedCachingOpt(trace);
    if (opt <= 0.0) continue;
    const EngineRun mlp = RunEngine(
        trace, FractionalEngine::kMultiplicative, trials, opt);
    const EngineRun lin =
        RunEngine(trace, FractionalEngine::kLinear, trials, opt);
    table.AddRow({name, "multiplicative", Fmt(mlp.frac_over_opt, 2),
                  Fmt(mlp.rounded_over_opt, 2),
                  Fmt(mlp.us_per_request, 2)});
    table.AddRow({name, "linear", Fmt(lin.frac_over_opt, 2),
                  Fmt(lin.rounded_over_opt, 2),
                  Fmt(lin.us_per_request, 2)});
  }
  bench::EmitTable(args, "e13", "engine_comparison", table);
  std::cout << "\nThe same Algorithm-1 rounding consumes either engine "
               "unchanged; only the fractional quality (and speed) "
               "differs.\n";
  return 0;
}
