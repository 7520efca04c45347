// Run an online policy on a saved, streamed, or imported trace.
//
// Usage:
//   wmlp_run --trace t.wmlp --policy landlord [--seed 1] [--trials 5]
//            [--opt] [--reference-solver] [--batch 256]
//   wmlp_run --trace t.wmlp --policy predictive [--predictor ewma|oracle]
//            [--pred-noise none|lognormal|swap|stale] [--pred-eta 0.5]
//            [--pred-lambda 0.75] [--pred-horizon 0]
//   wmlp_run --trace-stream t.wmlp --policy lru [--chunk 4096] [--latency]
//            [--watchdog] [--watchdog-threshold 8.0]
//   wmlp_run --import accesses.log --k 64 [--dirty 10] [--clean 1] ...
//
// All modes accept --telemetry-out (snapshot JSON), --trace-out (Perfetto
// trace_event JSON), and --stats-interval (periodic Prometheus text on
// stderr); see src/telemetry/export.h.
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
// The --predictor / --pred-* flags configure the predictive combiner
// (docs/ARCHITECTURE.md §14) and require --policy predictive; --predictor
// oracle primes an exact next-request-time oracle from the in-memory trace
// (cloned per trial), so it needs --trace, not --trace-stream. Out-of-range
// values (negative eta or horizon, lambda outside [0, 1], unknown noise
// kind) are rejected before any trace is read.
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
#include "predict/noise.h"
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
  const tools::Flags flags(argc, argv);
  const std::string path = flags.GetString("trace");
  const std::string stream_path = flags.GetString("trace-stream");
  const std::string import_path = flags.GetString("import");
  std::string policy_name = flags.GetString("policy", "lru");
  // The fractional stack defaults to the output-sensitive solver;
  // --reference-solver opts back into the O(n * ell)-per-step oracle.
  if (flags.Has("reference-solver")) {
    if (policy_name == "randomized" || policy_name == "fractional-rounded") {
      policy_name = "fractional-rounded-reference";
    } else if (policy_name == "randomized:") {
      policy_name += "engine=reference";
    } else if (policy_name.rfind("randomized:", 0) == 0) {
      policy_name += ",engine=reference";
    } else {
      tools::Die("--reference-solver only applies to the randomized /"
                 " fractional-rounded policies");
    }
  }
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

  // Predictive-combiner flags (strictly validated before any trace I/O:
  // the range getters refuse negative eta/horizon and lambda outside
  // [0, 1] rather than clamping).
  const bool has_pred_flags =
      flags.Has("predictor") || flags.Has("pred-noise") ||
      flags.Has("pred-eta") || flags.Has("pred-lambda") ||
      flags.Has("pred-horizon");
  const std::string predictor_kind = flags.GetString("predictor", "ewma");
  predict::PredictiveOptions popts;
  if (has_pred_flags) {
    if (policy_name != "predictive") {
      tools::Die("--predictor / --pred-* flags require --policy predictive"
                 " (for parameterized forms use predictive:k=v,...)");
    }
    if (predictor_kind != "ewma" && predictor_kind != "oracle") {
      tools::Die("--predictor must be 'ewma' or 'oracle', got '" +
                 predictor_kind + "'");
    }
    popts.lambda = flags.GetDoubleInRange("pred-lambda", 0.75, 0.0, 1.0);
    popts.horizon =
        flags.GetIntInRange("pred-horizon", 0, 0, int64_t{1} << 40);
    popts.eta = flags.GetDoubleInRange("pred-eta", 0.0, 0.0, 1e15);
    const std::string noise_name = flags.GetString("pred-noise", "none");
    if (!predict::ParseNoiseKind(noise_name, &popts.noise)) {
      tools::Die("--pred-noise must be none, lognormal, swap, or stale;"
                 " got '" + noise_name + "'");
    }
    std::string perr;
    if (predict::MakePredictivePolicy(seed, popts, nullptr, &perr) ==
        nullptr) {
      tools::Die(perr);
    }
  }

  // Validate the policy name once.
  if (MakePolicyByName(policy_name, seed) == nullptr) {
    std::string names;
    for (const auto& n : KnownPolicyNames()) names += " " + n;
    tools::Die("unknown policy '" + policy_name + "'; known:" + names);
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
    if (has_pred_flags) {
      tools::Die("--predictor / --pred-* need the whole trace in memory;"
                 " use --trace");
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
  if (has_pred_flags && predictor_kind == "oracle") {
    oracle = predict::OraclePredictor::FromTrace(*trace);
  }
  const auto factory = [&](uint64_t s) -> PolicyPtr {
    if (!has_pred_flags) return MakePolicyByName(policy_name, s);
    return predict::MakePredictivePolicy(
        s, popts, oracle == nullptr ? nullptr : oracle->Clone());
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
