#include "server/server.h"

#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <utility>

#include <span>

#include "engine/engine.h"
#include "registry/policy_registry.h"
#include "server/inbox.h"
#include "server/metrics.h"
#include "server/sharding.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_span.h"
#include "util/check.h"
#include "util/hot_path.h"
#include "util/rng.h"

namespace wmlp {

namespace {

// Shard worker serve loop: drains the inbox in engine_batch-sized
// in-order runs, remaps global page ids to the shard's dense local ids at
// the boundary, and hands each run to the push-mode engine in one
// StepBatch call. The staging buffers are caller-owned (the worker lambda
// allocates them once, outside this WMLP_HOT function), and PopReady fills
// the caller-owned array directly — the loop performs no steady-state
// allocation, and the hot-path gate verifies none is even statically
// reachable. Returns how many requests this shard served.
WMLP_HOT int64_t DrainShard(const ShardMap& map,
                            [[maybe_unused]] int32_t shard, ShardInbox& inbox,
                            Engine& engine, std::span<SeqRequest> in,
                            std::span<Request> reqs) {
  // Remap-loop lookahead: the routing-table gather (shard_of / local_id
  // rows scattered by page id) is the loop's only irregular access; 16
  // entries covers its miss latency at this loop's few-cycle body.
  constexpr size_t kMapPrefetch = 16;
  BatchResult stats;
  int64_t served = 0;
  for (;;) {
    const size_t got = inbox.PopReady(in.data(), in.size());
    if (got == 0) return served;
    for (size_t i = 0; i < got; ++i) {
      if (i + kMapPrefetch < got) {
        map.PrefetchLookup(in[i + kMapPrefetch].request.page);
      }
      const Request& global = in[i].request;
      WMLP_DCHECK(map.shard_of(global.page) == shard);
      reqs[i] = Request{map.local_id(global.page), global.level};
    }
    engine.StepBatch(std::span<const Request>(reqs.data(), got), stats);
    served += static_cast<int64_t>(got);
  }
}

// Contiguous range of the trace owned by client c out of n: the partition
// depends only on (length, n), so the per-shard subsequences — and with
// them every cost field — are independent of which thread submits what.
std::pair<int64_t, int64_t> ClientRange(int64_t length, int32_t client,
                                        int32_t clients) {
  const int64_t lo = length * client / clients;
  const int64_t hi = length * (client + 1) / clients;
  return {lo, hi};
}

void RunClient(const Trace& trace, const ShardMap& map, int32_t client,
               int32_t clients, int64_t batch,
               std::vector<std::unique_ptr<ShardInbox>>& inboxes) {
  const int32_t shards = map.num_shards();
  std::vector<std::vector<SeqRequest>> buffers(
      static_cast<size_t>(shards));
  const auto [lo, hi] = ClientRange(trace.length(), client, clients);
  for (int64_t i = lo; i < hi; ++i) {
    const Request& r = trace.requests[static_cast<size_t>(i)];
    const auto s = static_cast<size_t>(map.shard_of(r.page));
    buffers[s].push_back(SeqRequest{i, r});
    if (static_cast<int64_t>(buffers[s].size()) >= batch) {
      // Push copies; clear() keeps the buffer's capacity, so after the
      // first few batches the client side allocates nothing either.
      inboxes[s]->Push(client, buffers[s]);
      buffers[s].clear();
    }
  }
  for (size_t s = 0; s < buffers.size(); ++s) {
    inboxes[s]->Push(client, buffers[s]);
    inboxes[s]->Close(client);
  }
}

// Everything ValidateServeConfig checks except shardability, which needs
// a hash of every page; ServeTrace leaves that to the ShardMap's one pass.
std::string OptionsError(const ServeOptions& options) {
  if (options.clients < 1) return "clients must be >= 1";
  if (options.clients > kMaxClients) {
    return "clients must be <= " + std::to_string(kMaxClients);
  }
  if (options.batch < 1) return "batch must be >= 1";
  if (options.batch > kMaxBatch) {
    return "batch must be <= " + std::to_string(kMaxBatch);
  }
  if (options.engine_batch < 1) return "engine-batch must be >= 1";
  if (options.engine_batch > kMaxBatch) {
    return "engine-batch must be <= " + std::to_string(kMaxBatch);
  }
  if (MakePolicyByName(options.policy, options.seed) == nullptr) {
    return "unknown policy '" + options.policy + "'";
  }
  if (!std::isfinite(options.watchdog_threshold) ||
      options.watchdog_threshold < 0.0) {
    return "watchdog threshold must be finite and >= 0";
  }
  if (options.watchdog_threshold > 0.0 && !options.watchdog) {
    return "watchdog threshold requires the watchdog";
  }
  return "";
}

}  // namespace

std::string ValidateServeConfig(const Instance& instance,
                                const ServeOptions& options) {
  const std::string error = OptionsError(options);
  if (!error.empty()) return error;
  return ShardabilityError(instance, options.shards);
}

ServeReport ServeTrace(const Trace& trace, const ServeOptions& options) {
  WMLP_TELEMETRY_SPAN(serve_span, "server.serve_trace", "server");
  const std::string error = OptionsError(options);
  WMLP_CHECK_MSG(error.empty(), "bad serve config: " << error);

  // Checks shardability from its own hash pass.
  const ShardMap map(trace.instance, options.shards);
  const int32_t shards = options.shards;
  const int32_t clients = options.clients;

  std::vector<std::unique_ptr<ShardInbox>> inboxes;
  inboxes.reserve(static_cast<size_t>(shards));
  for (int32_t s = 0; s < shards; ++s) {
    inboxes.push_back(std::make_unique<ShardInbox>(clients));
  }

  // Shard state lives outside the worker threads so results survive the
  // joins. Empty shards get no policy, engine, or worker. Engines run in
  // push mode: the worker feeds inbox batches to StepBatch directly.
  ShardedMetrics metrics(shards, options.collect_latency);
  std::vector<PolicyPtr> policies(static_cast<size_t>(shards));
  std::vector<std::unique_ptr<Engine>> engines(
      static_cast<size_t>(shards));
  std::vector<SimResult> results(static_cast<size_t>(shards));
  std::vector<int64_t> served(static_cast<size_t>(shards), 0);
  for (int32_t s = 0; s < shards; ++s) {
    if (map.shard_empty(s)) continue;
    const auto idx = static_cast<size_t>(s);
    if (options.watchdog) {
      // Attached before the worker starts; the shard instance lives in
      // the ShardMap, which outlives the metrics object.
      WatchdogOptions wopts;
      wopts.threshold = options.watchdog_threshold;
      wopts.label = std::to_string(s);
      metrics.AttachWatchdog(s, map.shard_instance(s), wopts);
    }
    policies[idx] = MakePolicyByName(
        options.policy, DeriveSeed(options.seed, static_cast<uint64_t>(s)));
    EngineOptions eopts;
    eopts.observer = metrics.observer(s);
    engines[idx] = std::make_unique<Engine>(map.shard_instance(s),
                                            *policies[idx], eopts);
  }

  // Wall-clock throughput measurement, reported not replayed — exempt
  // from the determinism wall-clock rule.
  const auto start = std::chrono::steady_clock::now();  // wmlp-lint-allow(wall-clock)
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(shards) +
                  static_cast<size_t>(clients));
  for (int32_t s = 0; s < shards; ++s) {
    if (map.shard_empty(s)) continue;
    workers.emplace_back(
        [&results, &engines, &served, &map, &inboxes, &options, s] {
          WMLP_TELEMETRY_SPAN(shard_span, "server.shard_worker", "server");
          const auto idx = static_cast<size_t>(s);
          // Staging buffers live here, outside the hot drain loop.
          std::vector<SeqRequest> in(
              static_cast<size_t>(options.engine_batch));
          std::vector<Request> reqs(
              static_cast<size_t>(options.engine_batch));
          served[idx] = DrainShard(map, s, *inboxes[idx], *engines[idx],
                                   std::span<SeqRequest>(in),
                                   std::span<Request>(reqs));
          results[idx] = engines[idx]->result();
        });
  }
  for (int32_t c = 0; c < clients; ++c) {
    workers.emplace_back([&trace, &map, c, clients, &options, &inboxes] {
      RunClient(trace, map, c, clients, options.batch, inboxes);
    });
  }
  for (std::thread& w : workers) w.join();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -  // wmlp-lint-allow(wall-clock)
                                    start)
          .count();

  ServeReport report;
  report.requests = trace.length();
  report.wall_seconds = wall_seconds;
  report.requests_per_sec =
      wall_seconds > 0.0 ? static_cast<double>(trace.length()) / wall_seconds
                         : 0.0;
  report.shards.resize(static_cast<size_t>(shards));
  int64_t routed = 0;
  for (int32_t s = 0; s < shards; ++s) {
    const auto idx = static_cast<size_t>(s);
    ShardReport& sr = report.shards[idx];
    sr.pages = static_cast<int32_t>(map.shard_pages(s).size());
    sr.capacity = map.shard_capacity(s);
    if (map.shard_empty(s)) continue;
    sr.result = results[idx];
    sr.requests = served[idx];
    routed += sr.requests;
    WMLP_CHECK_MSG(inboxes[idx]->drained(),
                   "shard " << s << " exited with queued requests");
    // The per-shard CostMeter is an independent witness of the engine's
    // accounting; any disagreement is a serving-layer bug.
    const CostMeter& meter = metrics.meter(s);
    WMLP_CHECK(sr.result.eviction_cost == meter.eviction_cost());
    WMLP_CHECK(sr.result.fetch_cost == meter.fetch_cost());
    WMLP_CHECK(sr.result.evictions == meter.evictions());
    WMLP_CHECK(sr.result.fetches == meter.fetches());
    WMLP_CHECK(sr.result.hits == meter.hits());
    WMLP_CHECK(sr.result.misses == meter.misses());
  }
  WMLP_CHECK_MSG(routed == trace.length(),
                 "served " << routed << " of " << trace.length()
                           << " requests");
  report.totals = metrics.Totals();
  if (options.collect_latency) report.latency = metrics.MergedLatency();
  // Publish after the joins and witness checks, in fixed shard order;
  // telemetry reads the meters, it never feeds back into the report.
  metrics.PublishTelemetry();
  metrics.PublishWatchdogs();
  if constexpr (telemetry::kEnabled) {
    telemetry::Registry::Get()
        .GetGauge("wmlp_serve_last_wall_seconds")
        .Set(wall_seconds);
  }
  return report;
}

}  // namespace wmlp
