// Sharded concurrent WMLP cache service.
//
// ServeTrace hash-partitions the page universe across S shards
// (server/sharding.h), gives each shard an independent registry policy
// with a private capacity budget, and pushes the request stream through
// per-shard inboxes (server/inbox.h) from N client threads submitting in
// batches. Each shard worker drains its inbox in engine_batch-sized runs
// into an ordinary strict push-mode Engine via StepBatch, so every
// feasibility check, audit hook, and observer of the single-cache serve
// loop applies per shard unchanged.
//
// Determinism contract (enforced by tests/server_test.cpp, hammered by
// tests/server_stress_test.cpp under TSan):
//   * With shards = 1 the report's cost/count fields are bitwise equal to
//     Engine(TraceSource(trace), MakePolicyByName(policy,
//     DeriveSeed(seed, 0))).Run() — the sharded pipeline adds zero cost —
//     for every registry policy and any client count.
//   * For fixed (trace, policy, seed, shards), all cost/count fields
//     (totals and per shard) are bitwise identical regardless of the
//     client count, batch size, and thread schedule. Requests are merged
//     per shard in global sequence order (see inbox.h); per-shard policy
//     seeds are DeriveSeed(seed, shard); totals are summed in shard
//     order.
//   * Only wall_seconds / requests_per_sec / latency are timing-dependent.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/step_observers.h"
#include "sim/simulator.h"
#include "trace/instance.h"

namespace wmlp {

struct ServeOptions {
  int32_t shards = 1;
  int32_t clients = 1;
  // Client-side submission batch, in requests: a client hands a shard its
  // buffered requests once the buffer reaches this size (plus one final
  // flush). Smaller batches lower shard stalls; bigger batches lower
  // locking overhead. Neither changes any cost field.
  int64_t batch = 256;
  // Shard-side dispatch batch, in requests: each worker pops up to this
  // many in-order requests from its inbox per lock acquisition and serves
  // them in one Engine::StepBatch call. Purely a throughput knob — the
  // batched serve path is bitwise-equal to single-stepping, so no cost
  // field depends on it.
  int64_t engine_batch = 256;
  std::string policy = "lru";
  uint64_t seed = 1;
  // Collect per-request serve-time histograms (one per shard, merged into
  // ServeReport::latency).
  bool collect_latency = false;
  // Attach a cost-ratio watchdog to every nonempty shard
  // (engine/cost_watchdog.h): live `wmlp_watchdog_*` gauges plus the
  // /healthz verdict via telemetry/health.h. Pure observer — no cost or
  // count field changes with it on (tests/telemetry_test.cpp battery).
  bool watchdog = false;
  // Ratio above which /healthz flips unhealthy; 0 = monitor only.
  double watchdog_threshold = 0.0;
};

// Sanity ceilings for the config surface; ValidateServeConfig rejects
// anything outside. Chosen far above any sensible run (a "client" is a
// real thread) but low enough that a typo'd or fuzzed flag cannot ask for
// millions of threads or an effectively-unbounded batch.
inline constexpr int32_t kMaxClients = 1024;
inline constexpr int64_t kMaxBatch = int64_t{1} << 22;

struct ShardReport {
  SimResult result;        // the shard engine's own accounting
  int32_t pages = 0;       // pages owned
  int32_t capacity = 0;    // capacity slice
  int64_t requests = 0;    // requests routed here
};

struct ServeReport {
  SimResult totals;                  // summed over shards, in shard order
  std::vector<ShardReport> shards;
  int64_t requests = 0;
  double wall_seconds = 0.0;         // submit + serve, all threads joined
  double requests_per_sec = 0.0;
  LatencyHistogram latency;          // merged; empty unless collect_latency
};

// Empty string when `options` can serve `instance`; otherwise a
// human-readable reason. Rejects out-of-range shards/clients/batch
// (zero, negative, or above the ceilings), unknown policy names, and
// instances whose capacity cannot give every nonempty shard a slot.
std::string ValidateServeConfig(const Instance& instance,
                                const ServeOptions& options);

// Serves `trace` through the sharded pipeline and blocks until every
// client and shard worker has joined. Aborts if ValidateServeConfig
// rejects (callers own argument validation; the tool and fuzz harness
// both go through ValidateServeConfig first). Each call hashes every page
// once, in its ShardMap, which also checks shardability.
ServeReport ServeTrace(const Trace& trace, const ServeOptions& options);

}  // namespace wmlp
