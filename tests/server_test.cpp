// Proof battery for the sharded serving layer (src/server):
//   * ShardMap structural invariants (partition, capacity split).
//   * Single-shard lockstep equivalence: ServeTrace(shards=1) is bitwise
//     cost-identical to the plain Engine run, for every registry policy
//     and several client counts.
//   * Multi-shard determinism: all cost/count fields are bitwise
//     identical across client counts, batch sizes, and repeated runs.
//   * Config validation rejects out-of-range values.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/request_source.h"
#include "registry/policy_registry.h"
#include "server/inbox.h"
#include "server/server.h"
#include "server/sharding.h"
#include "trace/generators.h"
#include "util/rng.h"

namespace wmlp {
namespace {

Trace MakeZipfTrace(int32_t n, int32_t k, int32_t ell, int64_t length,
                    uint64_t seed) {
  Instance inst(n, k, ell,
                MakeWeights(n, ell, WeightModel::kZipfPages, 8.0, seed));
  return GenZipf(std::move(inst), length, 0.9,
                 ell == 1 ? LevelMix::AllLowest(1) : LevelMix::UniformMix(ell),
                 seed + 1);
}

// Bitwise equality of every cost/count field (doubles compared with ==,
// deliberately: the determinism contract is bitwise, not approximate).
void ExpectSameResult(const SimResult& a, const SimResult& b,
                      const std::string& context) {
  EXPECT_EQ(a.eviction_cost, b.eviction_cost) << context;
  EXPECT_EQ(a.fetch_cost, b.fetch_cost) << context;
  EXPECT_EQ(a.hits, b.hits) << context;
  EXPECT_EQ(a.misses, b.misses) << context;
  EXPECT_EQ(a.evictions, b.evictions) << context;
  EXPECT_EQ(a.fetches, b.fetches) << context;
}

TEST(ShardMapTest, PartitionsEveryPageExactlyOnce) {
  const Trace trace = MakeZipfTrace(97, 24, 3, 1, 5);
  const ShardMap map(trace.instance, 8);
  std::vector<int32_t> seen(97, 0);
  for (int32_t s = 0; s < map.num_shards(); ++s) {
    for (const PageId p : map.shard_pages(s)) {
      EXPECT_EQ(map.shard_of(p), s);
      EXPECT_EQ(map.global_id(s, map.local_id(p)), p);
      ++seen[static_cast<size_t>(p)];
    }
  }
  for (const int32_t count : seen) EXPECT_EQ(count, 1);
}

TEST(ShardMapTest, CapacitySumsToKAndNonemptyShardsGetASlot) {
  for (const int32_t shards : {1, 2, 3, 7, 16}) {
    const Trace trace = MakeZipfTrace(50, 17, 2, 1, 9);
    const ShardMap map(trace.instance, shards);
    int64_t total = 0;
    for (int32_t s = 0; s < shards; ++s) {
      total += map.shard_capacity(s);
      if (!map.shard_empty(s)) {
        EXPECT_GE(map.shard_capacity(s), 1) << "shard " << s;
        const Instance& inst = map.shard_instance(s);
        EXPECT_EQ(inst.num_pages(),
                  static_cast<int32_t>(map.shard_pages(s).size()));
        EXPECT_EQ(inst.cache_size(), map.shard_capacity(s));
      } else {
        EXPECT_EQ(map.shard_capacity(s), 0) << "shard " << s;
      }
    }
    EXPECT_EQ(total, 17) << "shards=" << shards;
  }
}

TEST(ShardMapTest, ShardInstanceKeepsGlobalWeightRows) {
  const Trace trace = MakeZipfTrace(40, 10, 3, 1, 11);
  const ShardMap map(trace.instance, 4);
  for (int32_t s = 0; s < 4; ++s) {
    if (map.shard_empty(s)) continue;
    const Instance& inst = map.shard_instance(s);
    for (PageId local = 0; local < inst.num_pages(); ++local) {
      const PageId global = map.global_id(s, local);
      for (Level i = 1; i <= inst.num_levels(); ++i) {
        EXPECT_EQ(inst.weight(local, i), trace.instance.weight(global, i));
      }
    }
  }
}

TEST(ShardMapTest, SingleShardIsTheIdentity) {
  const Trace trace = MakeZipfTrace(30, 8, 2, 1, 3);
  const ShardMap map(trace.instance, 1);
  for (PageId p = 0; p < 30; ++p) {
    EXPECT_EQ(map.shard_of(p), 0);
    EXPECT_EQ(map.local_id(p), p);
  }
  EXPECT_EQ(map.shard_capacity(0), 8);
  EXPECT_EQ(map.shard_instance(0), trace.instance);
}

// Reference for a shard's instance: one nested weight row per owned page,
// through the nested-row constructor rather than Instance::Select.
Instance NestedShardInstance(const Instance& global, const ShardMap& map,
                             int32_t shard) {
  std::vector<std::vector<Cost>> rows;
  for (const PageId p : map.shard_pages(shard)) {
    std::vector<Cost> row;
    for (Level i = 1; i <= global.num_levels(); ++i) {
      row.push_back(global.weight(p, i));
    }
    rows.push_back(std::move(row));
  }
  const auto pages = static_cast<int32_t>(rows.size());
  return Instance(pages, map.shard_capacity(shard), global.num_levels(),
                  std::move(rows));
}

TEST(ShardMapTest, FlatShardInstancesEqualNestedRowInstances) {
  constexpr int32_t kPages = 500;
  for (const WeightModel model :
       {WeightModel::kGeometricLevels, WeightModel::kLogUniform}) {
    for (const int32_t ell : {1, 3}) {
      const Instance inst(kPages, 128, ell,
                          MakeWeights(kPages, ell, model, 8.0, 17));
      for (const int32_t shards : {1, 2, 3, 8, 64}) {
        const ShardMap map(inst, shards);
        for (int32_t s = 0; s < shards; ++s) {
          const auto& pages = map.shard_pages(s);
          EXPECT_TRUE(std::is_sorted(pages.begin(), pages.end()));
          for (const PageId p : pages) {
            EXPECT_EQ(map.shard_of(p), ShardOfPage(p, shards));
          }
          if (map.shard_empty(s)) continue;
          EXPECT_EQ(map.shard_instance(s), NestedShardInstance(inst, map, s))
              << "ell=" << ell << " shards=" << shards << " shard " << s;
        }
      }
    }
  }
}

TEST(ShardMapDeathTest, DiesWithTheShardabilityMessage) {
  const Instance inst = Instance::Uniform(64, 2);
  for (const int32_t shards : {0, 8, kMaxShards + 1}) {
    const std::string error = ShardabilityError(inst, shards);
    ASSERT_FALSE(error.empty()) << "shards=" << shards;
    EXPECT_DEATH(ShardMap(inst, shards), "unshardable: " + error);
  }
}

TEST(ServeConfigTest, RejectsOutOfRangeValues) {
  const Trace trace = MakeZipfTrace(16, 8, 1, 1, 2);
  ServeOptions options;
  options.policy = "lru";

  options.shards = 0;
  EXPECT_FALSE(ValidateServeConfig(trace.instance, options).empty());
  options.shards = -3;
  EXPECT_FALSE(ValidateServeConfig(trace.instance, options).empty());
  options.shards = kMaxShards + 1;
  EXPECT_FALSE(ValidateServeConfig(trace.instance, options).empty());

  options.shards = 2;
  options.clients = 0;
  EXPECT_FALSE(ValidateServeConfig(trace.instance, options).empty());
  options.clients = kMaxClients + 1;
  EXPECT_FALSE(ValidateServeConfig(trace.instance, options).empty());

  options.clients = 1;
  options.batch = 0;
  EXPECT_FALSE(ValidateServeConfig(trace.instance, options).empty());
  options.batch = kMaxBatch + 1;
  EXPECT_FALSE(ValidateServeConfig(trace.instance, options).empty());

  options.batch = 16;
  options.policy = "no-such-policy";
  EXPECT_FALSE(ValidateServeConfig(trace.instance, options).empty());

  options.policy = "lru";
  EXPECT_TRUE(ValidateServeConfig(trace.instance, options).empty());
}

TEST(ServeConfigTest, RejectsMoreNonemptyShardsThanCapacity) {
  // k = 2 cannot give three nonempty shards a slot each. With n = 64 and
  // 8 shards, every shard is nonempty with overwhelming probability under
  // the SplitMix64 partition (checked structurally, not probabilistically:
  // the validation counts the actual nonempty shards).
  Instance inst = Instance::Uniform(64, 2);
  ServeOptions options;
  options.shards = 8;
  const std::string error = ValidateServeConfig(inst, options);
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("cannot give"), std::string::npos) << error;
}

// The headline equivalence: one shard, any client count, every registry
// policy — bitwise the same cost as the plain Engine on the same trace.
TEST(ServeEquivalenceTest, SingleShardMatchesEngineForEveryPolicy) {
  const Trace trace = MakeZipfTrace(48, 12, 2, 3000, 21);
  for (const std::string& name : KnownPolicyNames()) {
    if (name == "marking") continue;  // single-level only; covered below
    PolicyPtr policy = MakePolicyByName(name, DeriveSeed(77, 0));
    TraceSource source(trace);
    Engine engine(source, *policy);
    const SimResult mono = engine.Run();

    for (const int32_t clients : {1, 3}) {
      ServeOptions options;
      options.shards = 1;
      options.clients = clients;
      options.batch = 61;  // deliberately not a divisor of anything
      options.policy = name;
      options.seed = 77;
      const ServeReport report = ServeTrace(trace, options);
      ExpectSameResult(report.totals, mono,
                       name + " clients=" + std::to_string(clients));
      ASSERT_EQ(report.shards.size(), 1u);
      ExpectSameResult(report.shards[0].result, mono, name + " shard0");
      EXPECT_EQ(report.requests, trace.length());
    }
  }
}

TEST(ServeEquivalenceTest, SingleShardMatchesEngineSingleLevel) {
  const Trace trace = MakeZipfTrace(40, 10, 1, 2000, 13);
  for (const std::string& name : KnownPolicyNames()) {
    PolicyPtr policy = MakePolicyByName(name, DeriveSeed(5, 0));
    TraceSource source(trace);
    Engine engine(source, *policy);
    const SimResult mono = engine.Run();

    ServeOptions options;
    options.shards = 1;
    options.clients = 2;
    options.batch = 7;
    options.policy = name;
    options.seed = 5;
    const ServeReport report = ServeTrace(trace, options);
    ExpectSameResult(report.totals, mono, name);
  }
}

// Multi-shard determinism: for fixed (trace, policy, seed, shards), the
// client count and batch size must not change a single cost/count bit.
TEST(ServeDeterminismTest, InvariantToClientCountAndBatchSize) {
  const Trace trace = MakeZipfTrace(64, 16, 2, 4000, 31);
  for (const std::string& name :
       {std::string("lru"), std::string("landlord"), std::string("waterfill"),
        std::string("randomized")}) {
    ServeOptions base;
    base.shards = 4;
    base.policy = name;
    base.seed = 99;
    base.clients = 1;
    base.batch = 256;
    const ServeReport reference = ServeTrace(trace, base);

    for (const int32_t clients : {2, 3, 8}) {
      for (const int64_t batch : {int64_t{1}, int64_t{37}, int64_t{1024}}) {
        ServeOptions options = base;
        options.clients = clients;
        options.batch = batch;
        const ServeReport report = ServeTrace(trace, options);
        const std::string context = name + " clients=" +
                                    std::to_string(clients) + " batch=" +
                                    std::to_string(batch);
        ExpectSameResult(report.totals, reference.totals, context);
        ASSERT_EQ(report.shards.size(), reference.shards.size());
        for (size_t s = 0; s < report.shards.size(); ++s) {
          ExpectSameResult(report.shards[s].result,
                           reference.shards[s].result,
                           context + " shard " + std::to_string(s));
          EXPECT_EQ(report.shards[s].requests,
                    reference.shards[s].requests);
        }
      }
    }
  }
}

// Serve-side batching contract: engine_batch only changes how many
// requests each worker hands to StepBatch per lock acquisition. The whole
// report — totals and every per-shard row, rendered to CSV at full double
// precision — must be byte-identical across engine_batch values, for every
// registry policy.
std::string ReportCsv(const ServeReport& report) {
  std::ostringstream os;
  os.precision(17);
  os << "requests," << report.requests << "\n";
  os << "eviction_cost," << report.totals.eviction_cost << "\n";
  os << "fetch_cost," << report.totals.fetch_cost << "\n";
  os << "hits," << report.totals.hits << "\n";
  os << "misses," << report.totals.misses << "\n";
  os << "evictions," << report.totals.evictions << "\n";
  os << "fetches," << report.totals.fetches << "\n";
  for (size_t s = 0; s < report.shards.size(); ++s) {
    const ShardReport& sr = report.shards[s];
    os << "shard" << s << "," << sr.requests << ","
       << sr.result.eviction_cost << "," << sr.result.fetch_cost << ","
       << sr.result.hits << "," << sr.result.misses << ","
       << sr.result.evictions << "," << sr.result.fetches << "\n";
  }
  return os.str();
}

TEST(ServeDeterminismTest, EngineBatchLeavesServeCsvByteIdentical) {
  const Trace trace = MakeZipfTrace(64, 16, 2, 4000, 23);
  for (const auto& name : KnownPolicyNames()) {
    if (name == "marking") continue;  // single-level-only (ell == 2 here)
    ServeOptions base;
    base.shards = 3;
    base.clients = 2;
    base.batch = 64;
    base.policy = name;
    base.seed = 7;
    base.engine_batch = 1;  // reference: worker single-steps
    const std::string reference = ReportCsv(ServeTrace(trace, base));
    for (const int64_t engine_batch :
         {int64_t{2}, int64_t{7}, int64_t{64}, int64_t{4096}}) {
      ServeOptions options = base;
      options.engine_batch = engine_batch;
      EXPECT_EQ(ReportCsv(ServeTrace(trace, options)), reference)
          << name << " engine_batch=" << engine_batch;
    }
  }
}

TEST(ServeDeterminismTest, RepeatedRunsAreIdentical) {
  const Trace trace = MakeZipfTrace(32, 8, 3, 2500, 17);
  ServeOptions options;
  options.shards = 3;
  options.clients = 4;
  options.batch = 19;
  options.policy = "randomized";
  options.seed = 1234;
  const ServeReport a = ServeTrace(trace, options);
  const ServeReport b = ServeTrace(trace, options);
  ExpectSameResult(a.totals, b.totals, "repeat");
  for (size_t s = 0; s < a.shards.size(); ++s) {
    ExpectSameResult(a.shards[s].result, b.shards[s].result,
                     "repeat shard " + std::to_string(s));
  }
}

TEST(ServeTraceTest, EmptyTraceProducesZeroReport) {
  Trace trace = MakeZipfTrace(16, 8, 2, 100, 4);
  trace.requests.clear();
  ServeOptions options;
  options.shards = 4;
  options.clients = 3;
  const ServeReport report = ServeTrace(trace, options);
  EXPECT_EQ(report.requests, 0);
  EXPECT_EQ(report.totals.eviction_cost, 0.0);
  EXPECT_EQ(report.totals.hits + report.totals.misses, 0);
}

TEST(ServeTraceTest, RequestCountsPartitionTheTrace) {
  const Trace trace = MakeZipfTrace(80, 20, 2, 5000, 8);
  ServeOptions options;
  options.shards = 8;
  options.clients = 4;
  options.policy = "lru";
  const ServeReport report = ServeTrace(trace, options);
  int64_t routed = 0;
  for (const ShardReport& sr : report.shards) routed += sr.requests;
  EXPECT_EQ(routed, trace.length());
  EXPECT_EQ(report.totals.hits + report.totals.misses, trace.length());
}

TEST(ServeTraceTest, LatencyHistogramCoversEveryRequest) {
  const Trace trace = MakeZipfTrace(32, 8, 2, 1500, 6);
  ServeOptions options;
  options.shards = 2;
  options.clients = 2;
  options.collect_latency = true;
  const ServeReport report = ServeTrace(trace, options);
  // Batched serving measures whole batches (OnBatchBegin arms, OnBatch
  // books elapsed/n for each of the n requests), so every routed request
  // lands in the merged histogram.
  EXPECT_EQ(report.latency.count(), trace.length());
  EXPECT_GT(report.latency.Quantile(0.5), 0.0);
}

// Inbox-level ordering: whatever the push interleaving, PopReady yields
// the global sequence order once per seq.
TEST(ShardInboxTest, MergesClientStreamsInSequenceOrder) {
  ShardInbox inbox(3);
  // Client 0 owns seqs {0, 3, 6}, client 1 {1, 4}, client 2 {2, 5, 7}.
  inbox.Push(0, {SeqRequest{0, {0, 1}}, SeqRequest{3, {3, 1}}});
  inbox.Push(2, {SeqRequest{2, {2, 1}}, SeqRequest{5, {5, 1}},
                 SeqRequest{7, {7, 1}}});
  inbox.Push(1, {SeqRequest{1, {1, 1}}, SeqRequest{4, {4, 1}}});
  inbox.Push(0, {SeqRequest{6, {6, 1}}});
  inbox.Close(0);
  inbox.Close(1);
  inbox.Close(2);

  std::vector<SeqRequest> out;
  SeqRequest buf[3];
  size_t got = 0;
  while ((got = inbox.PopReady(buf, 3)) > 0) {
    out.insert(out.end(), buf, buf + got);
  }
  ASSERT_EQ(out.size(), 8u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].seq, static_cast<int64_t>(i));
  }
  EXPECT_TRUE(inbox.drained());
}

TEST(ShardInboxTest, HoldsBackUntilEveryOpenClientHasPushed) {
  ShardInbox inbox(2);
  inbox.Push(0, {SeqRequest{5, {0, 1}}});
  // Client 1 has not pushed and not closed: seq 5 must not be released
  // yet (a smaller seq could still arrive from client 1). Closing client
  // 1 proves it cannot, releasing seq 5.
  inbox.Close(1);
  SeqRequest out[16];
  EXPECT_EQ(inbox.PopReady(out, 16), 1u);
  EXPECT_EQ(out[0].seq, 5);
  inbox.Close(0);
  EXPECT_EQ(inbox.PopReady(out, 16), 0u);
}

}  // namespace
}  // namespace wmlp
