// Steady-state serve benchmark for the wmlp library.
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Builds one Zipf trace from --seed, then for --seconds seconds measures
// the library the way its users drive it:
//
//   --trace 0  end-to-end: the sharded server (ServeTrace, wmlp_serve's
//              path) and the single-cache engine (Engine pull mode,
//              wmlp_run's path), plus the server's set-up time and the
//              eviction cost the policy paid.
//   --trace 1  the per-layer ledger: the same trace pushed through the
//              server's layers one at a time from this file — client
//              routing, inbox merge, remap, engine, observers, policy
//              (split into fractional solve, discretization and rounding
//              for the randomized algorithm) — next to a one-shard
//              ServeTrace, so each layer's self time is a difference of
//              two timed runs.
//
// Every timed pass is checked against an independent one: a pass whose
// cost or counts disagree is counted as failed and makes the result
// incorrect. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// where attempted/failed count requests served in checked passes.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/randomized.h"
#include "engine/engine.h"
#include "engine/request_source.h"
#include "registry/policy_registry.h"
#include "server/inbox.h"
#include "server/metrics.h"
#include "server/server.h"
#include "server/sharding.h"
#include "sim/cache_state.h"
#include "trace/generators.h"
#include "util/rng.h"

namespace wmlp::servebench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Shared by every workload: two levels, Zipf(0.8) page popularity with a
// uniform level mix, and a server of 2 shards fed by 1 client. Four
// threads on a 4-core host time-slice against the host's own noise; three
// leave a core spare and measure steadier.
constexpr int32_t kLevels = 2;
constexpr double kZipfAlpha = 0.8;
constexpr int32_t kShards = 2;
constexpr int32_t kClients = 1;
// Client submission and shard dispatch batch, as ServeOptions defaults.
constexpr int64_t kBatch = 256;

struct Workload {
  std::string_view name;
  std::string_view policy;
  WeightModel weights;
  double weight_ratio;
  int32_t n;
  int32_t k;
  int64_t length;  // requests per timed pass
};

// Sizes are chosen so one pass takes tens to hundreds of milliseconds and
// the cache fills within the first tenth of the trace (Certify checks).
constexpr Workload kWorkloads[] = {
    {"waterfill-levels", "waterfill", WeightModel::kGeometricLevels, 4.0,
     1 << 16, 1 << 13, 400'000},
    {"randomized-levels", "randomized", WeightModel::kGeometricLevels, 4.0,
     1 << 12, 1 << 8, 20'000},
    {"randomized-pages", "randomized", WeightModel::kZipfPages, 64.0,
     1 << 12, 1 << 8, 20'000},
};

// The paper's randomized algorithm, whose time the ledger splits into
// fractional solve, discretization and rounding.
bool Rounded(const Workload& w) { return w.policy == "randomized"; }

// Every page carries its own weight, so G, the number of distinct
// weights, grows toward n; otherwise weights are level-determined and
// G <= ell.
bool PerPageWeights(const Workload& w) {
  return w.weights == WeightModel::kZipfPages ||
         w.weights == WeightModel::kLogUniform;
}

// Passes run untimed before timing starts: on a 4-core VM the first
// seconds of a fresh process measured the serve path up to twice slower
// than the rest of the run. Capped at a quarter of --seconds.
constexpr double kWarmupSeconds = 3.0;

double WarmupSeconds(double seconds) {
  return std::min(kWarmupSeconds, seconds / 4.0);
}

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "error: " << why << "\nusage: servebench --workload <";
  for (size_t i = 0; i < std::size(kWorkloads); ++i) {
    std::cerr << (i ? "|" : "") << kWorkloads[i].name;
  }
  std::cerr << "> --seed <n> --seconds <s> --trace <0|1>\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (w.name == value) args.workload = &w;
      }
      if (args.workload == nullptr) Usage("unknown workload '" + value + "'");
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-') {
        Usage("--seed expects a non-negative integer");
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0) ||
          args.seconds > 3600.0) {
        Usage("--seconds expects a number in (0, 3600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace expects 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.workload == nullptr || !have_seed || args.seconds <= 0.0 ||
      !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are all required");
  }
  return args;
}

Trace MakeTrace(const Workload& w, uint64_t seed) {
  Instance instance(w.n, w.k, kLevels,
                    MakeWeights(w.n, kLevels, w.weights, w.weight_ratio,
                                DeriveSeed(seed, 1)));
  return GenZipf(std::move(instance), w.length, kZipfAlpha,
                 LevelMix::UniformMix(kLevels), DeriveSeed(seed, 2));
}

// Index of the first request that finds every nonempty shard of `map`
// over capacity in distinct pages requested so far: no policy can have
// a full cache earlier, and from here on every shard must evict.
int64_t ColdFillEnd(const Trace& trace, const ShardMap& map) {
  const int32_t shards = map.num_shards();
  std::vector<uint8_t> seen(static_cast<size_t>(trace.instance.num_pages()));
  std::vector<int32_t> distinct(static_cast<size_t>(shards), 0);
  int32_t pending = 0;
  for (int32_t s = 0; s < shards; ++s) pending += map.shard_empty(s) ? 0 : 1;
  for (int64_t t = 0; t < trace.length(); ++t) {
    const PageId p = trace.requests[static_cast<size_t>(t)].page;
    if (seen[static_cast<size_t>(p)]) continue;
    seen[static_cast<size_t>(p)] = 1;
    const int32_t s = map.shard_of(p);
    if (++distinct[static_cast<size_t>(s)] == map.shard_capacity(s) + 1 &&
        --pending == 0) {
      return t;
    }
  }
  return trace.length();
}

// Checks the trace measures what the workload's name claims: the weight
// regime, and a steady window (cache full, evictions forced) of at least
// 10·k requests covering at least 90% of the trace under both the
// one-shard and the workload's shard split. Returns the one-shard fill
// point, or -1 (after printing why) when a claim fails.
int64_t Certify(const Workload& w, const Trace& trace) {
  const Instance& inst = trace.instance;
  std::vector<Cost> weights;
  for (PageId p = 0; p < inst.num_pages(); ++p) {
    for (Level i = 1; i <= inst.num_levels(); ++i) {
      weights.push_back(inst.weight(p, i));
    }
  }
  std::sort(weights.begin(), weights.end());
  const auto groups = static_cast<int64_t>(
      std::unique(weights.begin(), weights.end()) - weights.begin());
  const bool regime_ok = PerPageWeights(w) ? groups >= inst.num_pages() / 2
                                            : groups <= inst.num_levels();
  const int64_t fill_one = ColdFillEnd(trace, ShardMap(inst, 1));
  const int64_t fill_grid = ColdFillEnd(trace, ShardMap(inst, kShards));
  const int64_t fill = std::max(fill_one, fill_grid);
  const int64_t steady = trace.length() - fill;
  std::cout << "workload " << w.name << ": policy " << w.policy << ", n "
            << inst.num_pages() << ", k " << inst.cache_size() << ", ell "
            << inst.num_levels() << ", " << groups << " distinct weights, "
            << trace.length() << " requests, cache full after " << fill
            << ", serve " << kShards << " shards x " << kClients
            << " clients\n";
  if (!regime_ok) {
    std::cout << "check failed: weight regime does not match the name\n";
    return -1;
  }
  if (steady < 10 * int64_t{inst.cache_size()} ||
      steady * 10 < trace.length() * 9) {
    std::cout << "check failed: steady window of " << steady
              << " requests is too short\n";
    return -1;
  }
  return fill_one;
}

bool SameResult(const SimResult& a, const SimResult& b) {
  return a.eviction_cost == b.eviction_cost && a.fetch_cost == b.fetch_cost &&
         a.hits == b.hits && a.misses == b.misses &&
         a.evictions == b.evictions && a.fetches == b.fetches;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// One human-readable line: the samples' quartiles and count.
void PrintQuartiles(std::string_view name, std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&v](double q) {
    return v[static_cast<size_t>(q * static_cast<double>(v.size() - 1))];
  };
  std::cout << name << ": q1 " << at(0.25) << ", median " << Median(v)
            << ", q3 " << at(0.75) << ", max " << v.back() << " over "
            << v.size() << " passes\n";
}

// Tracks checked passes for the attempted/failed counts.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  void Pass(int64_t requests, bool ok, const char* what) {
    attempted += requests;
    if (ok) return;
    failed += requests;
    std::cout << "check failed: " << what << "\n";
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const Tally& tally, const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << value << ", \"unit\": \""
              << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

ServeOptions MakeServeOptions(const Workload& w, uint64_t policy_seed,
                              int32_t shards, int32_t clients) {
  ServeOptions options;
  options.shards = shards;
  options.clients = clients;
  options.batch = kBatch;
  options.engine_batch = kBatch;
  options.policy = std::string(w.policy);
  options.seed = policy_seed;
  return options;
}

// The policy shard 0 of ServeTrace runs, seeded identically, so every
// one-shard layer below must reproduce its costs bit for bit.
PolicyPtr ShardZeroPolicy(const Workload& w, uint64_t policy_seed) {
  return MakePolicyByName(std::string(w.policy), DeriveSeed(policy_seed, 0));
}

// ---- --trace 0: end-to-end ------------------------------------------------

int RunEndToEnd(const Workload& w, const Trace& trace, int64_t fill,
                uint64_t policy_seed, double seconds) {
  const int64_t len = trace.length();
  const ServeOptions options =
      MakeServeOptions(w, policy_seed, kShards, kClients);

  // Reference for the engine path: the server's one-shard contract.
  const SimResult reference =
      ServeTrace(trace, MakeServeOptions(w, policy_seed, 1, 1)).totals;

  Tally tally;
  std::vector<double> serve_ns, setup_s, run_ns;
  SimResult serve_totals;
  bool have_totals = false;
  const double warmup = WarmupSeconds(seconds);
  const Clock::time_point start = Clock::now();
  // Alternate the two paths so drift in machine speed hits both alike.
  while (serve_ns.size() < 3 || Since(start) < warmup + seconds) {
    const bool timed = Since(start) >= warmup;
    const Clock::time_point t0 = Clock::now();
    const ServeReport report = ServeTrace(trace, options);
    const double call_s = Since(t0);
    if (timed) {
      serve_ns.push_back(report.wall_seconds * 1e9 /
                         static_cast<double>(len));
      // Everything ServeTrace does outside its own timed window: validate,
      // partition, attach every shard policy, then report.
      setup_s.push_back(call_s - report.wall_seconds);
    }
    if (!have_totals) serve_totals = report.totals;
    have_totals = true;
    tally.Pass(len,
               SameResult(report.totals, serve_totals) &&
                   report.requests == len,
               "sharded serve result changed between passes");

    // Engine path: attach, warm up over the cold fill, time the rest.
    PolicyPtr policy = ShardZeroPolicy(w, policy_seed);
    TraceSource source(trace);
    Engine engine(source, *policy);
    engine.RunFor(fill);
    const Clock::time_point t1 = Clock::now();
    const int64_t steady = engine.RunFor(len - fill);
    if (timed) run_ns.push_back(Since(t1) * 1e9 / static_cast<double>(steady));
    tally.Pass(len,
               SameResult(engine.result(), reference) && steady == len - fill,
               "engine run disagrees with the one-shard server");
  }

  const std::vector<Metric> metrics = {
      {"serve_ns_per_req", Median(serve_ns), "ns"},
      {"run_ns_per_req", Median(run_ns), "ns"},
      {"evict_cost_per_req",
       serve_totals.eviction_cost / static_cast<double>(len), "cost"},
      {"setup_s", Median(setup_s), "s"},
  };
  std::cout << serve_ns.size() << " passes per path; sharded hit rate "
            << serve_totals.hit_rate() << ", " << serve_totals.evictions
            << " evictions per pass\n";
  PrintQuartiles("serve_ns_per_req", serve_ns);
  PrintQuartiles("run_ns_per_req", run_ns);
  PrintQuartiles("setup_s", setup_s);
  PrintResult(tally, metrics);
  return 0;
}

// ---- --trace 1: per-layer ledger -------------------------------------------

struct LedgerRound {
  double route = 0.0;         // ShardMap::shard_of + client-side buffering
  double inbox = 0.0;         // ShardInbox Push + PopReady
  double remap = 0.0;         // ShardMap::local_id
  double engine_obs = 0.0;    // StepBatch with the server's observers
  double engine_bare = 0.0;   // StepBatch without observers
  double policy = 0.0;        // Policy::Serve alone
  double solver = 0.0;        // FractionalMlp alone (rounded policies)
  double stack = 0.0;         // solver + Lemma 4.5 discretization
};

// One-shard server pipeline run inline on this thread, each layer timed
// per batch: exactly the calls a client thread and a shard worker make.
SimResult TimePipeline(const Workload& w, const Trace& trace,
                       const ShardMap& map, uint64_t policy_seed,
                       LedgerRound& round) {
  const int64_t len = trace.length();
  ShardInbox inbox(1);
  ShardedMetrics metrics(1, /*collect_latency=*/false);
  PolicyPtr policy = ShardZeroPolicy(w, policy_seed);
  EngineOptions eopts;
  eopts.observer = metrics.observer(0);
  Engine engine(map.shard_instance(0), *policy, eopts);
  std::vector<std::vector<SeqRequest>> buffers(1);
  buffers[0].reserve(kBatch);
  std::vector<SeqRequest> in(kBatch);
  std::vector<Request> reqs(kBatch);
  BatchResult stats;
  double route = 0.0, inbox_s = 0.0, remap = 0.0, engine_s = 0.0;
  for (int64_t lo = 0; lo < len; lo += kBatch) {
    const int64_t hi = std::min(len, lo + kBatch);
    const Clock::time_point a = Clock::now();
    for (int64_t i = lo; i < hi; ++i) {
      const Request& r = trace.requests[static_cast<size_t>(i)];
      buffers[static_cast<size_t>(map.shard_of(r.page))].push_back(
          SeqRequest{i, r});
    }
    const Clock::time_point b = Clock::now();
    inbox.Push(0, buffers[0]);
    buffers[0].clear();
    size_t got = 0;
    while (got < static_cast<size_t>(hi - lo)) {
      got += inbox.PopReady(in.data() + got, in.size() - got);
    }
    const Clock::time_point c = Clock::now();
    for (size_t i = 0; i < got; ++i) {
      reqs[i] = Request{map.local_id(in[i].request.page), in[i].request.level};
    }
    const Clock::time_point d = Clock::now();
    engine.StepBatch(std::span<const Request>(reqs.data(), got), stats);
    const Clock::time_point e = Clock::now();
    route += std::chrono::duration<double>(b - a).count();
    inbox_s += std::chrono::duration<double>(c - b).count();
    remap += std::chrono::duration<double>(d - c).count();
    engine_s += std::chrono::duration<double>(e - d).count();
  }
  inbox.Close(0);
  const double per_req = 1e9 / static_cast<double>(len);
  round.route = route * per_req;
  round.inbox = inbox_s * per_req;
  round.remap = remap * per_req;
  round.engine_obs = engine_s * per_req;
  return engine.result();
}

SimResult TimeEngineBare(const Workload& w, const Instance& inst,
                         std::span<const Request> reqs, uint64_t policy_seed,
                         LedgerRound& round) {
  PolicyPtr policy = ShardZeroPolicy(w, policy_seed);
  Engine engine(inst, *policy);
  BatchResult stats;
  const Clock::time_point t0 = Clock::now();
  for (size_t lo = 0; lo < reqs.size(); lo += kBatch) {
    engine.StepBatch(reqs.subspan(lo, std::min<size_t>(kBatch,
                                                       reqs.size() - lo)),
                     stats);
  }
  round.engine_bare = Since(t0) * 1e9 / static_cast<double>(reqs.size());
  return engine.result();
}

// Policy::Serve against a bare CacheState: no validity, feasibility or
// hit bookkeeping. Returns the costs in SimResult form (hits/misses 0).
SimResult TimePolicyAlone(const Workload& w, const Instance& inst,
                          std::span<const Request> reqs, uint64_t policy_seed,
                          LedgerRound& round) {
  PolicyPtr policy = ShardZeroPolicy(w, policy_seed);
  CacheState state(inst);
  CacheOps ops(inst, state);
  policy->Attach(inst);
  const Clock::time_point t0 = Clock::now();
  for (size_t t = 0; t < reqs.size(); ++t) {
    ops.set_time(static_cast<Time>(t));
    policy->Serve(static_cast<Time>(t), reqs[t], ops);
  }
  round.policy = Since(t0) * 1e9 / static_cast<double>(reqs.size());
  SimResult result;
  result.eviction_cost = ops.eviction_cost();
  result.fetch_cost = ops.fetch_cost();
  result.evictions = ops.evictions();
  result.fetches = ops.fetches();
  return result;
}

// A fractional policy served alone; writes its ns/request to `ns` and
// returns its LP cost.
Cost TimeFractional(FractionalPolicy& frac, const Instance& inst,
                    std::span<const Request> reqs, double& ns) {
  frac.Attach(inst);
  const Clock::time_point t0 = Clock::now();
  for (size_t t = 0; t < reqs.size(); ++t) {
    frac.Serve(static_cast<Time>(t), reqs[t]);
  }
  ns = Since(t0) * 1e9 / static_cast<double>(reqs.size());
  return frac.lp_cost();
}

int RunLedger(const Workload& w, const Trace& trace, uint64_t policy_seed,
              double seconds) {
  const int64_t len = trace.length();
  const ShardMap map(trace.instance, 1);
  const Instance& inst = map.shard_instance(0);
  std::vector<Request> local(trace.requests.size());
  for (size_t i = 0; i < local.size(); ++i) {
    local[i] = Request{map.local_id(trace.requests[i].page),
                       trace.requests[i].level};
  }
  const std::span<const Request> reqs(local);
  const ServeOptions one = MakeServeOptions(w, policy_seed, 1, 1);
  const ServeOptions grid =
      MakeServeOptions(w, policy_seed, kShards, kClients);

  Tally tally;
  const double warmup = WarmupSeconds(seconds);
  const auto per_req = [len](const ServeReport& report) {
    return report.wall_seconds * 1e9 / static_cast<double>(len);
  };

  // Phase 1, the servers: one-shard and sharded ServeTrace passes back to
  // back, apart from the single-threaded layer passes of phase 2 — after
  // those, the sharded pass measured up to 1.7x slower than in a run of
  // server passes alone.
  std::vector<double> serve_one, speedup;
  SimResult reference, grid_totals;
  bool first = true;
  Clock::time_point start = Clock::now();
  while (serve_one.size() < 3 || Since(start) < warmup + seconds / 2.0) {
    const bool timed = Since(start) >= warmup;
    const ServeReport one_report = ServeTrace(trace, one);
    const ServeReport grid_report = ServeTrace(trace, grid);
    if (first) {
      reference = one_report.totals;
      grid_totals = grid_report.totals;
      first = false;
    }
    tally.Pass(len, SameResult(one_report.totals, reference),
               "one-shard server result changed between passes");
    tally.Pass(len, SameResult(grid_report.totals, grid_totals),
               "sharded server result changed between passes");
    if (!timed) continue;
    serve_one.push_back(per_req(one_report));
    speedup.push_back(per_req(one_report) / per_req(grid_report));
  }

  // Phase 2, the layers.
  std::vector<LedgerRound> rounds;
  Cost solver_lp = 0.0, stack_lp = 0.0;
  start = Clock::now();
  while (rounds.size() < 3 || Since(start) < seconds / 2.0) {
    LedgerRound round;
    tally.Pass(len,
               SameResult(TimePipeline(w, trace, map, policy_seed, round),
                          reference),
               "inline pipeline disagrees with the one-shard server");
    tally.Pass(len,
               SameResult(TimeEngineBare(w, inst, reqs, policy_seed, round),
                          reference),
               "bare engine disagrees with the one-shard server");
    SimResult alone = TimePolicyAlone(w, inst, reqs, policy_seed, round);
    alone.hits = reference.hits;
    alone.misses = reference.misses;
    tally.Pass(len, SameResult(alone, reference),
               "policy alone disagrees with the one-shard server");
    if (Rounded(w)) {
      // The solver and the discretized stack the randomized policy rounds,
      // built with the same default options it uses.
      FractionalMlp solver;
      const Cost lp = TimeFractional(solver, inst, reqs, round.solver);
      const FractionalPolicyPtr stack = MakeFractionalStack();
      const Cost stack_cost = TimeFractional(*stack, inst, reqs, round.stack);
      if (rounds.empty()) {
        solver_lp = lp;
        stack_lp = stack_cost;
      }
      tally.Pass(len, lp == solver_lp && lp > 0.0,
                 "fractional solve changed between passes");
      tally.Pass(len, stack_cost == stack_lp && stack_cost > 0.0,
                 "discretized solve changed between passes");
    }
    rounds.push_back(round);
  }

  auto median_of = [&rounds](const std::function<double(const LedgerRound&)>&
                                 f) {
    std::vector<double> v;
    v.reserve(rounds.size());
    for (const LedgerRound& r : rounds) v.push_back(f(r));
    return Median(std::move(v));
  };
  const double n = static_cast<double>(len);
  const std::vector<Metric> metrics = {
      {"route_ns_per_req", median_of([](auto& r) { return r.route; }), "ns"},
      {"inbox_ns_per_req", median_of([](auto& r) { return r.inbox; }), "ns"},
      {"remap_ns_per_req", median_of([](auto& r) { return r.remap; }), "ns"},
      {"handoff_ns_per_req", Median(serve_one) - median_of([](auto& r) {
                               return r.route + r.inbox + r.remap +
                                      r.engine_obs;
                             }),
       "ns"},
      {"observers_ns_per_req",
       median_of([](auto& r) { return r.engine_obs - r.engine_bare; }), "ns"},
      {"engine_ns_per_req",
       median_of([](auto& r) { return r.engine_bare - r.policy; }), "ns"},
      {"policy_ns_per_req", median_of([](auto& r) { return r.policy; }),
       "ns"},
      {"solver_ns_per_req", median_of([](auto& r) { return r.solver; }),
       "ns"},
      {"discretize_ns_per_req",
       median_of([](auto& r) { return r.stack - r.solver; }), "ns"},
      {"rounding_ns_per_req", median_of([&w](auto& r) {
         return Rounded(w) ? r.policy - r.stack : 0.0;
       }),
       "ns"},
      {"serve_one_shard_ns_per_req", Median(serve_one), "ns"},
      {"shard_speedup", Median(speedup), "x"},
      {"hit_ratio", reference.hit_rate(), "ratio"},
      {"evictions_per_req", static_cast<double>(reference.evictions) / n,
       "1/req"},
  };
  std::cout << serve_one.size() << " server rounds, " << rounds.size()
            << " layer rounds\n";
  PrintResult(tally, metrics);
  return 0;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload& w = *args.workload;
  const Trace trace = MakeTrace(w, args.seed);
  const int64_t fill = Certify(w, trace);
  if (fill < 0) return 1;
  const uint64_t policy_seed = DeriveSeed(args.seed, 3);
  return args.trace ? RunLedger(w, trace, policy_seed, args.seconds)
                    : RunEndToEnd(w, trace, fill, policy_seed, args.seconds);
}

}  // namespace
}  // namespace wmlp::servebench

int main(int argc, char** argv) { return wmlp::servebench::Main(argc, argv); }
