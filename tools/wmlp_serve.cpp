// Serve a saved trace through the sharded concurrent cache service.
//
// Usage:
//   wmlp_serve --trace t.wmlp [--shards 4] [--clients 2] [--batch 256]
//              [--engine-batch 256] [--policy waterfill] [--seed 1]
//              [--latency] [--compare]
//              [--watchdog] [--watchdog-threshold 8.0]
//              [--telemetry-out s.json] [--trace-out t.json]
//              [--stats-interval 1.0] [--sample-interval 1.0]
//              [--sample-retention 600] [--http-port 0]
//              [--http-port-file port.txt] [--linger 30]
//
// Hash-partitions the trace's pages across --shards independent policy
// instances, feeds them from --clients submitting threads in --batch-sized
// batches, and prints the merged report: total cost, a per-shard table,
// and throughput. --engine-batch sets how many in-order requests each
// shard worker pops per lock acquisition and serves in one StepBatch
// call. Cost and count fields are bitwise deterministic for fixed (trace,
// policy, seed, shards) regardless of --clients, --batch, and
// --engine-batch (see src/server/server.h for the contract); --shards 1
// reproduces the plain engine run exactly.
//
// --latency additionally prints per-request serve-time percentiles merged
// across the per-shard cycle-counter histograms. --compare also runs the
// unsharded engine on the same trace and prints the sharding penalty
// (sharded cost / monolithic cost).
//
// --telemetry-out writes a wmlp-telemetry-snapshot-v1 JSON of every
// registered metric at exit; --trace-out writes Chrome/Perfetto trace_event
// JSON of the engine/server spans; --stats-interval N dumps Prometheus text
// to stderr every N seconds while serving.
//
// Observability plane (docs/ARCHITECTURE.md §15):
// --sample-interval N snapshots every metric into in-memory ring buffers
// every N seconds (--sample-retention points each), exported as the
// snapshot's "timeseries" section and live on /vars. --http-port P serves
// /metrics, /vars, and /healthz on 127.0.0.1:P (0 = ephemeral;
// --http-port-file records the bound port for scripts). --watchdog
// attaches the per-shard cost-ratio watchdog (engine/cost_watchdog.h);
// --watchdog-threshold R flips /healthz unhealthy when the realized
// eviction cost provably exceeds R x the offline optimum. --linger N
// keeps the process (and its endpoint) alive N seconds after serving so
// an external scraper can observe the final state. None of these change
// any cost/count output byte (tests/telemetry_test.cpp). Any other flag, a
// repeated flag or a stray argument exits 2.
#include <chrono>
#include <iostream>
#include <thread>

#include "engine/engine.h"
#include "engine/request_source.h"
#include "harness/table.h"
#include "registry/policy_registry.h"
#include "server/server.h"
#include "telemetry/health.h"
#include "tool_util.h"
#include "trace/trace_io.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace wmlp;
  const tools::Flags flags(
      argc, argv,
      tools::WithTelemetryFlags(
          {.values = {"trace", "policy", "shards", "clients", "batch",
                      "engine-batch", "seed", "watchdog-threshold", "linger"},
           .switches = {"latency", "compare", "watchdog"}}));
  const std::string path = flags.GetString("trace");
  if (path.empty()) tools::Die("--trace is required");

  ServeOptions options;
  options.policy = flags.GetString("policy", "waterfill");
  // The range getters also guard the int32 casts; ValidateServeConfig
  // below applies the serve surface's own ceilings. Nothing is clamped.
  options.shards = static_cast<int32_t>(
      flags.GetIntInRange("shards", 4, 0, (int64_t{1} << 31) - 1));
  options.clients = static_cast<int32_t>(
      flags.GetIntInRange("clients", 2, 0, (int64_t{1} << 31) - 1));
  options.batch = flags.GetIntInRange("batch", 256, 0, int64_t{1} << 32);
  options.engine_batch =
      flags.GetIntInRange("engine-batch", 256, 0, int64_t{1} << 32);
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  options.collect_latency = flags.Has("latency");
  options.watchdog = flags.Has("watchdog");
  options.watchdog_threshold =
      flags.GetDoubleInRange("watchdog-threshold", 0.0, 0.0, 1e12);
  const double linger =
      flags.GetDoubleInRange("linger", 0.0, 0.0, 86400.0);

  const telemetry::TelemetryRunOptions topts =
      tools::ParseTelemetryFlags(flags);

  std::string err;
  const auto trace = ReadTraceFile(path, &err);
  if (!trace) tools::Die(err);
  err = ValidateServeConfig(trace->instance, options);
  if (!err.empty()) tools::Die(err);

  telemetry::TelemetrySession telemetry_session(topts);
  tools::DieOnSessionStartError(telemetry_session);
  const ServeReport report = ServeTrace(*trace, options);

  std::cout << "policy " << options.policy << " on " << path << " ("
            << report.requests << " requests, "
            << trace->instance.DebugString() << ")\n";
  std::cout << "  shards=" << options.shards
            << " clients=" << options.clients
            << " batch=" << options.batch
            << " engine-batch=" << options.engine_batch
            << " seed=" << options.seed << "\n";
  std::cout << "  eviction cost: " << Fmt(report.totals.eviction_cost, 2)
            << "\n";
  std::cout << "  hit rate:      " << Fmt(report.totals.hit_rate(), 4)
            << "\n";
  std::cout << "  evictions:     " << report.totals.evictions << "\n";
  std::cout << "  throughput:    "
            << Fmt(report.requests_per_sec / 1e6, 3) << " Mreq/s ("
            << Fmt(report.wall_seconds * 1e3, 1) << " ms wall)\n";

  Table table({"shard", "pages", "capacity", "requests", "hit rate",
               "eviction cost"});
  for (size_t s = 0; s < report.shards.size(); ++s) {
    const ShardReport& sr = report.shards[s];
    table.AddRow({FmtInt(static_cast<int64_t>(s)), FmtInt(sr.pages),
                  FmtInt(sr.capacity), FmtInt(sr.requests),
                  Fmt(sr.result.hit_rate(), 4),
                  Fmt(sr.result.eviction_cost, 2)});
  }
  table.Print(std::cout);

  if (report.latency.count() > 0) {
    std::cout << "  serve latency (cycles): p50="
              << Fmt(report.latency.Quantile(0.5), 0)
              << " p90=" << Fmt(report.latency.Quantile(0.9), 0)
              << " p99=" << Fmt(report.latency.Quantile(0.99), 0)
              << " max=" << report.latency.max_cycles() << "\n";
  }

  if (flags.Has("compare")) {
    // The monolithic reference: one engine, one policy over the whole
    // cache, seeded like shard 0 so --shards 1 matches it bitwise.
    PolicyPtr policy =
        MakePolicyByName(options.policy, DeriveSeed(options.seed, 0));
    TraceSource source(*trace);
    Engine engine(source, *policy);
    const SimResult mono = engine.Run();
    std::cout << "  monolithic cost: " << Fmt(mono.eviction_cost, 2)
              << "\n  sharding penalty: "
              << (mono.eviction_cost > 0.0
                      ? Fmt(report.totals.eviction_cost / mono.eviction_cost,
                            3)
                      : std::string("n/a"))
              << "x\n";
  }
  if (options.watchdog) {
    const health::HealthSnapshot snap =
        health::CostRatioHealth::Get().Snapshot();
    std::cout << "  watchdog:      cost_ratio_upper="
              << (snap.lower_bound > 0.0 ? Fmt(snap.ratio_upper, 3)
                                         : std::string("n/a"))
              << " (lower bound " << Fmt(snap.lower_bound, 2) << ", "
              << (snap.healthy ? "healthy" : "UNHEALTHY") << ")\n";
  }

  // Keep the scrape endpoint alive after serving so external pollers
  // (wmlp_top, the CI curl job) can observe the settled end state.
  if (linger > 0.0) {
    std::cerr << "wmlp: lingering " << linger << "s before exit\n";
    std::this_thread::sleep_for(std::chrono::duration<double>(linger));
  }
  if (!telemetry_session.Finish(&err)) tools::Die(err);
  return 0;
}
