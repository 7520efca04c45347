// E9 (Table 4): throughput — the systems-side claim that the
// distribution-free rounding is "easy to implement and very efficient"
// compared to maintaining a distribution over cache states.
//
// Policies are constructed by registry name and driven through the engine
// (TraceSource + Engine), i.e. the exact production serve loop. The
// "lru+observers" row attaches a CostMeter + LatencyHistogram to measure
// the observer indirection, which should be within noise of the bare run;
// "fractional-only" runs the multiplicative fractional solver alone on the
// class-ceiling weights the randomized policy attaches it to, the floor
// under the randomized stack.
//
// Reports thousands of requests/second per policy across (n, k, ell)
// points, each cell the best of bench::BestOf's reps over one 4000-request
// run (policy construction and Attach included).
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/fractional.h"
#include "core/weight_classes.h"
#include "engine/engine.h"
#include "engine/step_observers.h"
#include "registry/policy_registry.h"
#include "trace/generators.h"

namespace wmlp {
namespace {

Trace BenchTrace(int32_t n, int32_t k, int32_t ell) {
  Instance inst(n, k, ell,
                MakeWeights(n, ell, WeightModel::kLogUniform, 16.0, 7));
  return GenZipf(inst, 4000, 0.8,
                 ell == 1 ? LevelMix::AllLowest(1) : LevelMix::UniformMix(ell),
                 8);
}

double RunPolicy(const Trace& trace, const std::string& name, bool observed) {
  auto policy = MakePolicyByName(name, 3);
  TraceSource source(trace);
  CostMeter meter;
  LatencyHistogram latency;
  MultiObserver multi({&meter, &latency});
  EngineOptions opts;
  if (observed) opts.observer = &multi;
  Engine engine(source, *policy, opts);
  return engine.Run().eviction_cost;
}

// The copy is made inside the timed run, as the policy's Attach makes it.
double RunFractionalOnly(const Trace& trace) {
  const ClassCeilingInstance stack_inst(trace.instance);
  FractionalMlp frac;
  frac.Attach(stack_inst.get());
  for (Time t = 0; t < trace.length(); ++t) {
    frac.Serve(t, trace.requests[static_cast<size_t>(t)]);
  }
  return frac.lp_cost();
}

}  // namespace
}  // namespace wmlp

int main(int argc, char** argv) {
  using namespace wmlp;
  const bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);

  struct Point {
    int32_t n, k, ell;
  };
  const std::vector<Point> points = {
      {64, 8, 1}, {256, 32, 1}, {512, 64, 1}, {64, 8, 2}, {256, 32, 4}};
  struct Row {
    std::string label;
    std::string policy;  // registry name; empty = fractional-only
    bool observed = false;
  };
  const std::vector<Row> rows = {
      {"lru", "lru", false},
      {"lru+observers", "lru", true},
      {"landlord", "landlord", false},
      {"waterfill", "waterfill", false},
      {"randomized", "randomized", false},
      {"randomized (linear engine)", "randomized:engine=linear", false},
      {"fractional-only", "", false},
  };

  std::vector<std::string> header = {"policy"};
  std::vector<Trace> traces;
  for (const Point& p : points) {
    header.push_back("n=" + std::to_string(p.n) + " k=" + std::to_string(p.k) +
                     " l=" + std::to_string(p.ell));
    traces.push_back(BenchTrace(p.n, p.k, p.ell));
  }
  Table table(header);
  for (const Row& row : rows) {
    std::vector<std::string> cells = {row.label};
    for (const Trace& trace : traces) {
      const bench::Timing timing = bench::BestOf([&] {
        return row.policy.empty()
                   ? RunFractionalOnly(trace)
                   : RunPolicy(trace, row.policy, row.observed);
      });
      cells.push_back(
          Fmt(1e6 * static_cast<double>(trace.length()) / timing.best_ns, 1));
    }
    table.AddRow(cells);
  }
  bench::EmitTable(args, "e9", "throughput_kreq_per_s", table);
  return 0;
}
