// libFuzzer target: the wmlp_serve config surface and the sharded server.
//
// Decodes the input bytes into a ServeOptions (shards / clients / batch
// taken raw from the bytes, full signed range — negative, zero, and
// overflow values included) plus a small instance and request stream, then
// checks the layered contract:
//
//   1. ValidateServeConfig never crashes, and rejects every out-of-range
//      value (zero/negative/above-ceiling shards, clients, batch; unknown
//      policy) with a nonempty error — the same strictness tool_util's
//      flag parsing applies to the CLI surface.
//   2. Any config it accepts actually serves: ServeTrace completes and its
//      cost/count fields are bitwise identical when the run is repeated
//      with different client counts and batch sizes (the determinism
//      contract in server.h).
//   3. Accepted single-shard configs reproduce the plain Engine run
//      exactly, and every accepted config's flat shard instances equal
//      the ones built from nested weight rows (Instance::operator==).
//   4. The telemetry run-option surface (--telemetry-out / --trace-out /
//      --stats-interval) validates without crashing on arbitrary paths and
//      bit-pattern intervals, rejecting the documented invalid shapes; and
//      arming the tracer between the two serve runs must not change a
//      single cost/count bit (telemetry observes, never steers).
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/request_source.h"
#include "registry/policy_registry.h"
#include "server/server.h"
#include "server/sharding.h"
#include "telemetry/export.h"
#include "telemetry/trace_span.h"
#include "trace/generators.h"
#include "trace/trace.h"
#include "util/check.h"
#include "util/rng.h"

using namespace wmlp;

namespace {

struct ByteReader {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;

  uint8_t Next() { return pos < size ? data[pos++] : 0; }
  int32_t Next32() {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | Next();
    return static_cast<int32_t>(v);
  }
  int64_t Next64() {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | Next();
    return static_cast<int64_t>(v);
  }
  bool done() const { return pos >= size; }
};

constexpr int64_t kMaxRequests = 256;

void ExpectSame(const SimResult& a, const SimResult& b, const char* what) {
  WMLP_CHECK_MSG(a.eviction_cost == b.eviction_cost, what);
  WMLP_CHECK_MSG(a.fetch_cost == b.fetch_cost, what);
  WMLP_CHECK_MSG(a.hits == b.hits, what);
  WMLP_CHECK_MSG(a.misses == b.misses, what);
  WMLP_CHECK_MSG(a.evictions == b.evictions, what);
  WMLP_CHECK_MSG(a.fetches == b.fetches, what);
}

// Decodes and cross-checks a TelemetryRunOptions from the byte stream.
// Returns whether the options validated (the caller uses that to decide
// if arming the tracer mid-run is part of this input's schedule).
bool FuzzTelemetryOptions(ByteReader& in) {
  telemetry::TelemetryRunOptions topts;
  const uint8_t shape = in.Next();
  // Paths of 0..7 raw bytes: control characters, quotes, UTF-8 fragments.
  const size_t out_len = in.Next() % 8;
  for (size_t i = 0; i < out_len; ++i) {
    topts.telemetry_out.push_back(static_cast<char>(in.Next()));
  }
  if (shape & 1) {
    topts.trace_out = topts.telemetry_out;  // the same-file reject path
  } else {
    const size_t trace_len = in.Next() % 8;
    for (size_t i = 0; i < trace_len; ++i) {
      topts.trace_out.push_back(static_cast<char>(in.Next()));
    }
  }
  // Interval from a raw bit pattern: hits NaN, infinities, denormals,
  // negatives, and the [0.01, 86400] window edges.
  topts.stats_interval = std::bit_cast<double>(
      static_cast<uint64_t>(in.Next64()));

  const std::string err = telemetry::ValidateTelemetryRunOptions(topts);
  bool has_control = false;
  for (const std::string* p : {&topts.telemetry_out, &topts.trace_out}) {
    for (char ch : *p) {
      if (static_cast<unsigned char>(ch) < 0x20) has_control = true;
    }
  }
  const bool must_reject =
      has_control || !std::isfinite(topts.stats_interval) ||
      topts.stats_interval < 0.0 ||
      (topts.stats_interval != 0.0 &&
       (topts.stats_interval < 0.01 || topts.stats_interval > 86400.0)) ||
      (!topts.telemetry_out.empty() &&
       topts.telemetry_out == topts.trace_out);
  if (must_reject) {
    WMLP_CHECK_MSG(!err.empty(), "invalid telemetry options accepted");
  } else {
    WMLP_CHECK_MSG(err.empty(), "valid telemetry options rejected");
  }
  return err.empty();
}

// Each nonempty shard's instance must equal its reference: one nested
// weight row per owned page, through the nested-row constructor.
void CheckShardInstances(const Instance& inst, int32_t shards) {
  const ShardMap map(inst, shards);
  for (int32_t s = 0; s < shards; ++s) {
    if (map.shard_empty(s)) continue;
    std::vector<std::vector<Cost>> rows;
    for (const PageId p : map.shard_pages(s)) {
      std::vector<Cost> row;
      for (Level i = 1; i <= inst.num_levels(); ++i) {
        row.push_back(inst.weight(p, i));
      }
      rows.push_back(std::move(row));
    }
    const auto pages = static_cast<int32_t>(rows.size());
    const Instance nested(pages, map.shard_capacity(s), inst.num_levels(),
                          std::move(rows));
    WMLP_CHECK_MSG(map.shard_instance(s) == nested,
                   "flat shard instance differs from the nested-row one");
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  ByteReader in{data, size};

  // Policy first: marking constrains ell (its Attach asserts ell == 1).
  const std::vector<std::string> names = KnownPolicyNames();
  const size_t policy_sel = in.Next() % (names.size() + 1);
  const bool unknown_policy = policy_sel == names.size();
  const std::string policy =
      unknown_policy ? "no-such-policy" : names[policy_sel];

  const int32_t n = 1 + static_cast<int32_t>(in.Next() % 48);    // 1..48
  const int32_t k = 1 + static_cast<int32_t>(in.Next() % n);     // 1..n
  const int32_t ell =
      policy == "marking" ? 1 : 1 + static_cast<int32_t>(in.Next() % 3);
  const uint64_t seed = 1 + static_cast<uint64_t>(in.Next());

  ServeOptions options;
  options.policy = policy;
  options.seed = seed;
  // Raw, unclamped: the whole point is to hit the reject paths.
  options.shards = in.Next32();
  options.clients = in.Next32();
  options.batch = in.Next64();

  const bool telemetry_ok = FuzzTelemetryOptions(in);

  Instance inst(n, k, ell,
                MakeWeights(n, ell, WeightModel::kZipfPages, 8.0, seed));

  const std::string error = ValidateServeConfig(inst, options);
  const bool out_of_range =
      options.shards < 1 || options.shards > kMaxShards ||
      options.clients < 1 || options.clients > kMaxClients ||
      options.batch < 1 || options.batch > kMaxBatch || unknown_policy;
  if (out_of_range) {
    WMLP_CHECK_MSG(!error.empty(),
                   "out-of-range serve config accepted silently");
    return 0;
  }
  if (!error.empty()) return 0;  // e.g. k < #nonempty shards: valid reject
  CheckShardInstances(inst, options.shards);

  Trace trace{std::move(inst), {}};
  while (!in.done() && trace.length() < kMaxRequests) {
    Request r;
    r.page = static_cast<PageId>(in.Next() % n);
    r.level = static_cast<Level>(1 + in.Next() % ell);
    trace.requests.push_back(r);
  }

  // Execution uses small client counts — determinism says the choice is
  // invisible in the results, and it keeps thread churn per input bounded.
  ServeOptions run = options;
  run.clients = 1 + options.clients % 4;
  run.batch = 1 + options.batch % 128;
  const ServeReport first = ServeTrace(trace, run);
  WMLP_CHECK(first.requests == trace.length());

  // Second run under a different client/batch schedule AND, on inputs
  // whose telemetry options validated, with the tracer armed — the
  // determinism contract promises both knobs are invisible in the results.
  // (In telemetry-OFF builds arming is inert and this degrades to the
  // plain schedule check.)
  const bool arm_tracer = telemetry_ok && (seed & 1) != 0;
  if (arm_tracer) telemetry::Tracer::Arm();
  ServeOptions varied = run;
  varied.clients = 1 + (options.clients + 2) % 7;
  varied.batch = 1 + (options.batch + 31) % 200;
  const ServeReport second = ServeTrace(trace, varied);
  if (arm_tracer) {
    telemetry::Tracer::Disarm();
    telemetry::Tracer::Drain();  // keep per-thread buffers from pooling
  }
  ExpectSame(first.totals, second.totals,
             "serve totals varied with client/batch schedule");
  WMLP_CHECK(first.shards.size() == second.shards.size());
  for (size_t s = 0; s < first.shards.size(); ++s) {
    ExpectSame(first.shards[s].result, second.shards[s].result,
               "per-shard result varied with client/batch schedule");
  }

  if (options.shards == 1) {
    PolicyPtr mono = MakePolicyByName(options.policy, DeriveSeed(seed, 0));
    TraceSource source(trace);
    Engine engine(source, *mono);
    ExpectSame(first.totals, engine.Run(),
               "single-shard serve diverged from the plain engine");
  }
  return 0;
}
