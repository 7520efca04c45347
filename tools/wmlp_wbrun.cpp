// Generate or load a writeback trace and run writeback-aware policies.
//
// Usage:
//   wmlp_wbrun --n 64 --k 8 --length 10000 --write-ratio 0.3
//       --dirty 20 --clean 1 [--alpha 0.8] [--seed 1] [--page-dependent]
//       [--save t.wbtrace]
//   wmlp_wbrun --trace t.wbtrace
//
// Accepts the shared telemetry flags (tools/tool_util.h); any other flag,
// a repeated flag, a stray argument or a generator flag with --trace
// exits 2.
//
// Runs the native writeback baselines and the paper's algorithms through
// the Lemma 2.1 reduction, printing a comparison against the offline
// lower bound. Reduction policies are constructed by name via the policy
// registry; each is additionally driven over the reduced RW trace by the
// engine, so the table shows Lemma 2.1's cost(wb) <= cost(rw) live.
#include <iostream>

#include "engine/engine.h"
#include "engine/step_observers.h"
#include "harness/table.h"
#include "offline/multilevel_dp.h"
#include "offline/weighted_opt.h"
#include "registry/policy_registry.h"
#include "tool_util.h"
#include "writeback/rw_reduction.h"
#include "writeback/wb_trace_io.h"
#include "writeback/writeback_policies.h"
#include "writeback/writeback_simulator.h"

int main(int argc, char** argv) {
  using namespace wmlp;
  const tools::Flags flags(
      argc, argv,
      tools::WithTelemetryFlags(
          {.values = {"trace", "n", "k", "length", "alpha", "write-ratio",
                      "dirty", "clean", "seed", "save"},
           .switches = {"page-dependent"}}));
  const telemetry::TelemetryRunOptions topts =
      tools::ParseTelemetryFlags(flags);
  telemetry::TelemetrySession telemetry_session(topts);
  tools::DieOnSessionStartError(telemetry_session);

  flags.OnlyInMode(!flags.Has("trace"), "a generated trace (no --trace)",
                   {"n", "k", "length", "alpha", "write-ratio", "dirty",
                    "clean", "page-dependent"});
  wb::WbTrace trace{wb::WbInstance(1, 1, {1.0}, {1.0}), {}};
  if (flags.Has("trace")) {
    std::string err;
    auto loaded = wb::ReadWbTraceFile(flags.GetString("trace"), &err);
    if (!loaded) tools::Die(err);
    trace = std::move(*loaded);
  } else {
    wb::WbWorkloadOptions opts;
    opts.num_pages =
        static_cast<int32_t>(flags.GetIntInRange("n", 64, 1, 1 << 30));
    opts.cache_size =
        static_cast<int32_t>(flags.GetIntInRange("k", 8, 1, 1 << 30));
    opts.length =
        flags.GetIntInRange("length", 10000, 0, int64_t{1} << 40);
    opts.alpha = flags.GetDoubleInRange("alpha", 0.8, 1e-6, 1e6);
    opts.write_ratio =
        flags.GetDoubleInRange("write-ratio", 0.3, 0.0, 1.0);
    opts.dirty_cost = flags.GetDoubleInRange("dirty", 20.0, 0.0, 1e12);
    opts.clean_cost = flags.GetDoubleInRange("clean", 1.0, 0.0, 1e12);
    opts.page_dependent = flags.Has("page-dependent");
    opts.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
    trace = wb::GenWbZipf(opts);
  }
  if (flags.Has("save")) {
    if (!wb::WriteWbTraceFile(trace, flags.GetString("save"))) {
      tools::Die("cannot write " + flags.GetString("save"));
    }
    std::cout << "saved trace to " << flags.GetString("save") << "\n";
  }

  const Cost lb = MultiLevelLowerBound(wb::ToRwTrace(trace));
  std::cout << "writeback trace: n=" << trace.instance.num_pages()
            << " k=" << trace.instance.cache_size()
            << " T=" << trace.length() << "; offline lower bound " << lb
            << "\n\n";

  // Small instances: exact optimum too.
  if (trace.instance.num_pages() <= 10 && trace.length() <= 200) {
    std::cout << "exact offline optimum: " << WritebackOptimal(trace)
              << "\n\n";
  }

  Table table({"policy", "cost", "vs-LB", "dirty-evictions", "rw-cost"});
  auto report = [&](wb::WbPolicy& p, const std::string& rw_cost) {
    const auto res = wb::Simulate(trace, p);
    table.AddRow({p.name(), Fmt(res.eviction_cost, 1),
                  lb > 0 ? Fmt(res.eviction_cost / lb, 2) : "-",
                  FmtInt(res.dirty_evictions), rw_cost});
  };
  wb::WbLru lru;
  wb::WbCleanFirstLru clean_first;
  wb::WbLandlord landlord;
  report(lru, "-");
  report(clean_first, "-");
  report(landlord, "-");

  // The paper's algorithms, by registry name, through the Lemma 2.1
  // reduction. The rw-cost column re-runs the same policy over the reduced
  // RW trace via the engine: Lemma 2.1 guarantees cost <= rw-cost.
  const Trace rw_trace = wb::ToRwTrace(trace);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  for (const char* name :
       {"waterfill", "randomized", "randomized:engine=linear"}) {
    wb::WbFromRwPolicy wb_policy(MakePolicyByName(name, seed));
    PolicyPtr rw_policy = MakePolicyByName(name, seed);
    TraceSource source(rw_trace);
    Engine engine(source, *rw_policy);
    report(wb_policy, Fmt(engine.Run().eviction_cost, 1));
  }
  table.Print(std::cout);
  std::string terr;
  if (!telemetry_session.Finish(&terr)) tools::Die(terr);
  return 0;
}
