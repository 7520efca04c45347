// Run an online policy on a saved, streamed, or imported trace.
//
// Usage:
//   wmlp_run --trace t.wmlp --policy landlord [--seed 1] [--trials 5]
//            [--opt] [--batch 256]
//   wmlp_run --trace t.wmlp --policy predictive:lambda=0.5,noise=swap,eta=0.25
//            [--predictor ewma|oracle]
//   wmlp_run --trace-stream t.wmlp --policy lru [--chunk 4096] [--latency]
//            [--watchdog] [--watchdog-threshold 8.0]
//   wmlp_run --import accesses.log --k 64 [--dirty 10] [--clean 1] ...
//
// --policy takes any registry name or spec (registry/policy_registry.h),
// e.g. randomized:engine=reference for the O(n * ell)-per-step reference
// solver. All modes accept the shared telemetry flags (tools/tool_util.h;
// src/telemetry/export.h). Any other flag, a repeated flag, a stray
// argument or another mode's flag (--k, --dirty, --clean and
// --max-requests need --import; --chunk and --latency --trace-stream)
// exits 2.
//
// --trace-stream replays the same format incrementally through the engine's
// StreamingFileSource, holding only O(chunk) requests in memory — use it for
// traces that do not fit in RAM. --latency additionally prints per-request
// serve-time percentiles (cycle counter).
// --import reads a plain key/op log (one "<key> [R|W]" per line; see
// trace/import.h) instead of the wmlp trace format.
// --watchdog (streaming mode only: the in-memory modes run trials
// concurrently, and the observer is single-threaded) attaches the online
// cost-ratio watchdog (engine/cost_watchdog.h) and prints its running
// upper bound on the competitive ratio; --watchdog-threshold R flips the
// health signal (and /healthz, with --http-port) when the ratio crosses R.
// --batch sets the engine's pull-mode batch size (requests served per
// StepBatch slug): a pure throughput knob — all results are bitwise
// invariant to it (engine/engine.h).
// --opt also computes the offline optimum bounds and prints ratios
// (in-memory paths only).
// --predictor picks the predictive combiner's predictor (docs/
// ARCHITECTURE.md §14) and requires --policy predictive or one of its
// specs, which carry the combiner's options; oracle primes an exact
// next-request-time oracle from the in-memory trace (cloned per trial), so
// it needs --trace, not --trace-stream. A malformed or out-of-range spec
// is rejected before any trace is read.
// Randomized policies are averaged over --trials seeds.
#include <iostream>
#include <optional>

#include "engine/cost_watchdog.h"
#include "engine/engine.h"
#include "engine/step_observers.h"
#include "harness/experiment.h"
#include "harness/table.h"
#include "harness/thread_pool.h"
#include "offline/bounds.h"
#include "predict/oracle.h"
#include "predict/predictive_policy.h"
#include "registry/policy_registry.h"
#include "telemetry/health.h"
#include "tool_util.h"
#include "trace/import.h"
#include "trace/trace_io.h"
#include "util/rng.h"

namespace wmlp {
namespace {

// Streams the file through the engine once per trial (the source is
// single-pass, so each trial re-opens the file). Returns per-trial results.
// A fresh watchdog runs per trial (it tracks one request stream); each
// publishes its final totals into the health registry, whose snapshot sums
// the trials.
std::vector<SimResult> RunStreaming(const std::string& path,
                                    const std::string& policy_name,
                                    int32_t trials, uint64_t seed,
                                    int64_t chunk, int64_t batch,
                                    LatencyHistogram* histogram,
                                    bool watchdog,
                                    double watchdog_threshold) {
  std::vector<SimResult> results;
  for (int32_t trial = 0; trial < trials; ++trial) {
    std::string err;
    StreamingFileOptions sopts;
    sopts.chunk_size = chunk;
    auto source = StreamingFileSource::Open(path, &err, sopts);
    if (source == nullptr) tools::Die(err);
    PolicyPtr policy =
        MakePolicyByName(policy_name,
                         DeriveSeed(seed, static_cast<uint64_t>(trial)));
    EngineOptions eopts;
    eopts.batch = batch;
    MultiObserver multi;
    std::optional<CostRatioWatchdog> dog;
    if (histogram != nullptr) {
      histogram->Start();
      multi.Add(histogram);
    }
    if (watchdog) {
      WatchdogOptions wopts;
      wopts.threshold = watchdog_threshold;
      if (trials > 1) wopts.label = "trial" + std::to_string(trial);
      dog.emplace(source->instance(), wopts);
      multi.Add(&*dog);
    }
    if (histogram != nullptr || watchdog) eopts.observer = &multi;
    Engine engine(*source, *policy, eopts);
    results.push_back(engine.Run());
    if (dog.has_value()) dog->Publish();
  }
  return results;
}

}  // namespace
}  // namespace wmlp

int main(int argc, char** argv) {
  using namespace wmlp;
  const tools::Flags flags(
      argc, argv,
      tools::WithTelemetryFlags(
          {.values = {"trace", "trace-stream", "import", "policy", "predictor",
                      "seed", "trials", "batch", "chunk",
                      "watchdog-threshold", "k", "dirty", "clean",
                      "max-requests"},
           .switches = {"opt", "latency", "watchdog"}}));
  const std::string path = flags.GetString("trace");
  const std::string stream_path = flags.GetString("trace-stream");
  const std::string import_path = flags.GetString("import");
  const std::string policy_name = flags.GetString("policy", "lru");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const int32_t trials =
      static_cast<int32_t>(flags.GetIntInRange("trials", 1, 1, 1000000));
  // Same ceiling as the serve config surface (server.h kMaxBatch): far
  // above any sensible value, low enough that a typo cannot ask for an
  // effectively unbounded scratch buffer.
  const int64_t batch =
      flags.GetIntInRange("batch", 256, 1, int64_t{1} << 22);
  if (path.empty() && import_path.empty() && stream_path.empty()) {
    tools::Die("--trace, --trace-stream, or --import is required");
  }
  flags.OnlyInMode(!import_path.empty(), "--import",
                   {"k", "dirty", "clean", "max-requests"});
  flags.OnlyInMode(!stream_path.empty(), "--trace-stream",
                   {"chunk", "latency"});

  // Validate the policy name once; a predictive spec's range error is
  // MakePredictivePolicy's message.
  predict::PredictiveOptions popts;
  const bool predictive = ParsePredictiveSpec(policy_name, &popts);
  std::string perr;
  if (predictive &&
      predict::MakePredictivePolicy(seed, popts, nullptr, &perr) == nullptr) {
    tools::Die(perr);
  }
  if (MakePolicyByName(policy_name, seed) == nullptr) {
    std::string names;
    for (const auto& n : KnownPolicyNames()) names += " " + n;
    tools::Die("unknown policy '" + policy_name + "'; known:" + names);
  }
  const std::string predictor_kind = flags.GetString("predictor", "ewma");
  if (flags.Has("predictor") && !predictive) {
    tools::Die("--predictor requires --policy predictive"
               " (or predictive:k=v,...)");
  }
  if (predictor_kind != "ewma" && predictor_kind != "oracle") {
    tools::Die("--predictor must be 'ewma' or 'oracle', got '" +
               predictor_kind + "'");
  }

  const telemetry::TelemetryRunOptions topts =
      tools::ParseTelemetryFlags(flags);
  telemetry::TelemetrySession telemetry_session(topts);
  tools::DieOnSessionStartError(telemetry_session);

  const bool watchdog = flags.Has("watchdog");
  const double watchdog_threshold =
      flags.GetDoubleInRange("watchdog-threshold", 0.0, 0.0, 1e12);
  if ((watchdog || flags.Has("watchdog-threshold")) && stream_path.empty()) {
    tools::Die("--watchdog runs on the single-threaded streaming path;"
               " use --trace-stream");
  }
  if (watchdog_threshold > 0.0 && !watchdog) {
    tools::Die("--watchdog-threshold requires --watchdog");
  }

  if (!stream_path.empty()) {
    if (flags.Has("opt")) {
      tools::Die("--opt needs the whole trace in memory; use --trace");
    }
    if (flags.Has("predictor")) {
      tools::Die("--predictor needs the whole trace in memory; use --trace");
    }
    LatencyHistogram histogram;
    const auto results = RunStreaming(
        stream_path, policy_name, trials, seed,
        flags.GetIntInRange("chunk", 4096, 1, int64_t{1} << 22),
        batch, flags.Has("latency") ? &histogram : nullptr,
        watchdog, watchdog_threshold);
    RunningStat cost, hits;
    int64_t evictions = 0, length = 0;
    for (const auto& r : results) {
      cost.Add(r.eviction_cost);
      hits.Add(r.hit_rate());
      evictions += r.evictions;
      length = r.hits + r.misses;
    }
    std::cout << "policy " << policy_name << " on " << stream_path
              << " (streamed, " << length << " requests)\n";
    std::cout << "  eviction cost: " << Fmt(cost.mean(), 2);
    if (trials > 1) {
      std::cout << " +- " << Fmt(cost.ci95_halfwidth(), 2) << " (" << trials
                << " trials)";
    }
    std::cout << "\n  hit rate:      " << Fmt(hits.mean(), 4) << "\n";
    std::cout << "  evictions:     " << evictions / trials << "\n";
    if (histogram.count() > 0) {
      std::cout << "  serve latency (cycles): p50="
                << Fmt(histogram.Quantile(0.5), 0)
                << " p90=" << Fmt(histogram.Quantile(0.9), 0)
                << " p99=" << Fmt(histogram.Quantile(0.99), 0)
                << " max=" << histogram.max_cycles() << "\n";
    }
    if (watchdog) {
      const health::HealthSnapshot snap =
          health::CostRatioHealth::Get().Snapshot();
      std::cout << "  watchdog:      cost_ratio_upper="
                << (snap.lower_bound > 0.0 ? Fmt(snap.ratio_upper, 3)
                                           : std::string("n/a"))
                << " (lower bound " << Fmt(snap.lower_bound, 2) << ", "
                << (snap.healthy ? "healthy" : "UNHEALTHY") << ")\n";
    }
    std::string terr;
    if (!telemetry_session.Finish(&terr)) tools::Die(terr);
    return 0;
  }

  std::string err;
  std::optional<Trace> trace;
  if (!import_path.empty()) {
    ImportOptions iopts;
    iopts.cache_size =
        static_cast<int32_t>(flags.GetIntInRange("k", 16, 1, 1 << 30));
    iopts.dirty_cost = flags.GetDoubleInRange("dirty", 10.0, 0.0, 1e12);
    iopts.clean_cost = flags.GetDoubleInRange("clean", 1.0, 0.0, 1e12);
    iopts.max_requests = flags.GetIntInRange("max-requests", -1, -1,
                                             int64_t{1} << 40);
    auto imported = ImportKeyTraceFile(import_path, iopts, &err);
    if (!imported) tools::Die(err);
    std::cout << "imported " << imported->trace.requests.size()
              << " requests over " << imported->trace.instance.num_pages()
              << " keys"
              << (imported->has_ops ? " (RW-paging via read/write ops)"
                                    : " (single level)")
              << "\n";
    trace = std::move(imported->trace);
  } else {
    trace = ReadTraceFile(path, &err);
    if (!trace) tools::Die(err);
  }

  ThreadPool pool;
  EngineOptions eopts;
  eopts.batch = batch;
  // The oracle's occurrence tables are built once; Clone() shares them, so
  // the fresh-policy-per-trial discipline stays O(1) per trial.
  predict::PredictorPtr oracle;
  if (predictor_kind == "oracle") {
    oracle = predict::OraclePredictor::FromTrace(*trace);
  }
  const auto factory = [&](uint64_t s) -> PolicyPtr {
    if (oracle == nullptr) return MakePolicyByName(policy_name, s);
    return predict::MakePredictivePolicy(s, popts, oracle->Clone());
  };
  const auto results = RunTrials(pool, *trace, factory, trials, seed, eopts);

  RunningStat cost, hits;
  int64_t evictions = 0;
  for (const auto& r : results) {
    cost.Add(r.eviction_cost);
    hits.Add(r.hit_rate());
    evictions += r.evictions;
  }
  std::cout << "policy " << policy_name << " on "
            << (import_path.empty() ? path : import_path) << " ("
            << trace->length() << " requests, "
            << trace->instance.DebugString() << ")\n";
  std::cout << "  eviction cost: " << Fmt(cost.mean(), 2);
  if (trials > 1) {
    std::cout << " +- " << Fmt(cost.ci95_halfwidth(), 2) << " (" << trials
              << " trials)";
  }
  std::cout << "\n  hit rate:      " << Fmt(hits.mean(), 4) << "\n";
  std::cout << "  evictions:     " << evictions / trials << "\n";

  if (flags.Has("opt")) {
    const OfflineBounds b = ComputeOfflineBounds(*trace);
    if (b.exact) {
      std::cout << "  offline OPT:   " << Fmt(b.lower, 2)
                << " (exact)\n  ratio:         "
                << Fmt(cost.mean() / b.lower, 3) << "\n";
    } else {
      std::cout << "  offline OPT in [" << Fmt(b.lower, 2) << ", "
                << Fmt(b.upper, 2) << "]\n  ratio in      ["
                << Fmt(cost.mean() / b.upper, 3) << ", "
                << Fmt(cost.mean() / b.lower, 3) << "]\n";
    }
  }
  if (!telemetry_session.Finish(&err)) tools::Die(err);
  return 0;
}
