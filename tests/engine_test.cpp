#include "engine/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "engine/request_source.h"
#include "engine/step_observers.h"
#include "registry/policy_registry.h"
#include "trace/generators.h"
#include "trace/trace_io.h"
#include "util/check.h"

namespace wmlp {
namespace {

bool SameResult(const SimResult& a, const SimResult& b) {
  return a.eviction_cost == b.eviction_cost && a.fetch_cost == b.fetch_cost &&
         a.hits == b.hits && a.misses == b.misses &&
         a.evictions == b.evictions && a.fetches == b.fetches;
}

Trace MultiLevelTrace(int64_t length = 600) {
  Instance inst(24, 6, 3,
                MakeWeights(24, 3, WeightModel::kLogUniform, 16.0, 11));
  return GenZipf(inst, length, 0.8, LevelMix::UniformMix(3), 5);
}

std::string TempTracePath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(TraceSource, YieldsTheTraceInOrder) {
  const Trace t = MultiLevelTrace(50);
  TraceSource source(t);
  EXPECT_EQ(source.length_hint(), 50);
  Request r;
  for (Time i = 0; i < t.length(); ++i) {
    ASSERT_TRUE(source.Next(r));
    EXPECT_EQ(r, t.requests[static_cast<size_t>(i)]);
  }
  EXPECT_FALSE(source.Next(r));
  source.Reset();
  ASSERT_TRUE(source.Next(r));
  EXPECT_EQ(r, t.requests[0]);
}

TEST(Engine, MatchesSimulateForEveryRegistryPolicy) {
  const Trace multi = MultiLevelTrace();
  Instance flat = Instance::Uniform(24, 6);
  const Trace single = GenZipf(flat, 600, 0.8, LevelMix::AllLowest(1), 5);
  for (const auto& name : KnownPolicyNames()) {
    // marking is single-level-only (it CHECKs ell == 1 at Attach).
    const Trace& t = name == "marking" ? single : multi;
    PolicyPtr a = MakePolicyByName(name, 42);
    PolicyPtr b = MakePolicyByName(name, 42);
    ASSERT_NE(a, nullptr) << name;
    const SimResult via_simulate = Simulate(t, *a);
    TraceSource source(t);
    Engine engine(source, *b);
    EXPECT_TRUE(SameResult(via_simulate, engine.Run())) << name;
  }
}

TEST(Engine, StepAndRunForAreResumable) {
  const Trace t = MultiLevelTrace();
  PolicyPtr full = MakePolicyByName("landlord", 1);
  const SimResult whole = Simulate(t, *full);

  PolicyPtr stepped = MakePolicyByName("landlord", 1);
  TraceSource source(t);
  Engine engine(source, *stepped);
  EXPECT_TRUE(engine.Step());
  EXPECT_EQ(engine.time(), 1);
  EXPECT_EQ(engine.RunFor(99), 99);
  EXPECT_EQ(engine.time(), 100);
  // Mid-run state is inspectable and feasible.
  EXPECT_LE(engine.cache().size(), engine.cache().capacity());
  const SimResult partial = engine.result();
  EXPECT_EQ(partial.hits + partial.misses, 100);

  const SimResult final_result = engine.Run();
  EXPECT_TRUE(SameResult(whole, final_result));
  EXPECT_TRUE(engine.done());
  EXPECT_FALSE(engine.Step());
  EXPECT_EQ(engine.RunFor(10), 0);
}

TEST(StreamingFileSource, BitIdenticalToInMemoryReplay) {
  const Trace t = MultiLevelTrace();
  const std::string path = TempTracePath("stream_identical.wmlp");
  ASSERT_TRUE(WriteTraceFile(t, path));

  for (const auto& name : {"lru", "landlord", "randomized"}) {
    PolicyPtr mem_policy = MakePolicyByName(name, 9);
    const SimResult in_memory = Simulate(t, *mem_policy);

    std::string err;
    StreamingFileOptions opts;
    opts.chunk_size = 7;  // tiny chunk: force many refills
    auto source = StreamingFileSource::Open(path, &err, opts);
    ASSERT_NE(source, nullptr) << err;
    EXPECT_EQ(source->instance(), t.instance);
    EXPECT_EQ(source->length_hint(), t.length());

    PolicyPtr stream_policy = MakePolicyByName(name, 9);
    Engine engine(*source, *stream_policy);
    // Step one-by-one so the buffered bound is observable mid-run.
    while (engine.Step()) {
      ASSERT_LE(source->buffered(), source->chunk_size());
    }
    EXPECT_TRUE(SameResult(in_memory, engine.result())) << name;
  }
  std::remove(path.c_str());
}

TEST(StreamingFileSource, HoldsAtMostOneChunk) {
  Instance inst = Instance::Uniform(32, 4);
  const Trace t = GenZipf(inst, 5000, 0.7, LevelMix::AllLowest(1), 3);
  const std::string path = TempTracePath("stream_chunk.wmlp");
  ASSERT_TRUE(WriteTraceFile(t, path));

  StreamingFileOptions opts;
  opts.chunk_size = 64;
  auto source = StreamingFileSource::Open(path, nullptr, opts);
  ASSERT_NE(source, nullptr);
  Request r;
  int64_t served = 0;
  while (source->Next(r)) {
    ASSERT_LE(source->buffered(), 64);
    ++served;
  }
  EXPECT_EQ(served, t.length());
  std::remove(path.c_str());
}

TEST(StreamingFileSource, RejectsMalformedFiles) {
  const std::string path = TempTracePath("stream_bad.wmlp");
  {
    std::ofstream ofs(path);
    ofs << "not-a-trace\n";
  }
  std::string err;
  EXPECT_EQ(StreamingFileSource::Open(path, &err), nullptr);
  EXPECT_NE(err.find("magic"), std::string::npos);
  EXPECT_EQ(StreamingFileSource::Open(TempTracePath("missing.wmlp"), &err),
            nullptr);
  std::remove(path.c_str());
}

// --- Batched-vs-single equivalence battery ------------------------------
//
// The batching contract (docs/ARCHITECTURE.md §11): StepBatch serves its
// requests in exactly the per-request order Step() would, so every
// cost/count field, the CostMeter, and the fetch/evict event sequence are
// bitwise identical for any partition of the trace into batches. These
// tests are the contract's enforcement; they run in the default, audit
// (WMLP_AUDIT=ON), and TSan configurations.

struct ObservedRun {
  SimResult result;
  double fetch_cost = 0.0;
  double eviction_cost = 0.0;
  int64_t fetches = 0;
  int64_t evictions = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t steps = 0;
  std::vector<CacheEvent> events;
};

// Reference: the trace served one request per Step() through the pull
// path, with a CostMeter and an EventLogObserver attached.
ObservedRun SingleStepReference(const Trace& t, const std::string& name,
                                uint64_t seed) {
  ObservedRun run;
  PolicyPtr p = MakePolicyByName(name, seed);
  WMLP_CHECK(p != nullptr);
  CostMeter meter;
  EventLogObserver log(&run.events);
  MultiObserver obs({&meter, &log});
  TraceSource source(t);
  EngineOptions opts;
  opts.observer = &obs;
  Engine engine(source, *p, opts);
  while (engine.Step()) {
  }
  run.result = engine.result();
  run.fetch_cost = meter.fetch_cost();
  run.eviction_cost = meter.eviction_cost();
  run.fetches = meter.fetches();
  run.evictions = meter.evictions();
  run.hits = meter.hits();
  run.misses = meter.misses();
  run.steps = meter.steps();
  return run;
}

void ExpectRunsBitwiseEqual(const ObservedRun& ref, const ObservedRun& got,
                            const std::string& context) {
  EXPECT_TRUE(SameResult(ref.result, got.result)) << context;
  // Doubles compared with ==, deliberately: the contract is bitwise.
  EXPECT_EQ(ref.fetch_cost, got.fetch_cost) << context;
  EXPECT_EQ(ref.eviction_cost, got.eviction_cost) << context;
  EXPECT_EQ(ref.fetches, got.fetches) << context;
  EXPECT_EQ(ref.evictions, got.evictions) << context;
  EXPECT_EQ(ref.hits, got.hits) << context;
  EXPECT_EQ(ref.misses, got.misses) << context;
  EXPECT_EQ(ref.steps, got.steps) << context;
  ASSERT_EQ(ref.events.size(), got.events.size()) << context;
  for (size_t i = 0; i < ref.events.size(); ++i) {
    EXPECT_EQ(ref.events[i].t, got.events[i].t) << context << " event " << i;
    EXPECT_EQ(ref.events[i].kind, got.events[i].kind)
        << context << " event " << i;
    EXPECT_EQ(ref.events[i].page, got.events[i].page)
        << context << " event " << i;
    EXPECT_EQ(ref.events[i].level, got.events[i].level)
        << context << " event " << i;
  }
}

TEST(EngineBatchEquivalence, PushModeStepBatchMatchesSingleStep) {
  const Trace multi = MultiLevelTrace();
  Instance flat = Instance::Uniform(24, 6);
  const Trace single = GenZipf(flat, 600, 0.8, LevelMix::AllLowest(1), 5);
  for (const auto& name : KnownPolicyNames()) {
    const Trace& t = name == "marking" ? single : multi;
    const ObservedRun ref = SingleStepReference(t, name, 42);
    const int64_t n = t.length();
    for (const int64_t batch :
         {int64_t{1}, int64_t{2}, int64_t{7}, int64_t{64}, n}) {
      PolicyPtr p = MakePolicyByName(name, 42);
      ASSERT_NE(p, nullptr) << name;
      ObservedRun got;
      CostMeter meter;
      EventLogObserver log(&got.events);
      MultiObserver obs({&meter, &log});
      EngineOptions opts;
      opts.observer = &obs;
      Engine engine(t.instance, *p, opts);
      int64_t served = 0;
      for (int64_t i = 0; i < n; i += batch) {
        const int64_t m = std::min(batch, n - i);
        BatchResult br;
        engine.StepBatch(
            std::span<const Request>(t.requests.data() + i,
                                     static_cast<size_t>(m)),
            br);
        EXPECT_EQ(br.served, m);
        EXPECT_EQ(br.hits + br.misses, m);
        served += br.served;
      }
      EXPECT_EQ(served, n);
      EXPECT_TRUE(engine.done() || engine.time() == n);
      got.result = engine.result();
      got.fetch_cost = meter.fetch_cost();
      got.eviction_cost = meter.eviction_cost();
      got.fetches = meter.fetches();
      got.evictions = meter.evictions();
      got.hits = meter.hits();
      got.misses = meter.misses();
      got.steps = meter.steps();
      ExpectRunsBitwiseEqual(ref, got,
                             name + " batch=" + std::to_string(batch));
    }
  }
}

TEST(EngineBatchEquivalence, PullModeBatchKnobIsCostInvariant) {
  const Trace t = MultiLevelTrace();
  for (const auto& name : {"lru", "landlord", "waterfill", "randomized"}) {
    const ObservedRun ref = SingleStepReference(t, name, 7);
    for (const int64_t batch :
         {int64_t{1}, int64_t{3}, int64_t{100}, int64_t{4096}}) {
      PolicyPtr p = MakePolicyByName(name, 7);
      ObservedRun got;
      CostMeter meter;
      EventLogObserver log(&got.events);
      MultiObserver obs({&meter, &log});
      TraceSource source(t);
      EngineOptions opts;
      opts.observer = &obs;
      opts.batch = batch;
      Engine engine(source, *p, opts);
      got.result = engine.Run();
      got.fetch_cost = meter.fetch_cost();
      got.eviction_cost = meter.eviction_cost();
      got.fetches = meter.fetches();
      got.evictions = meter.evictions();
      got.hits = meter.hits();
      got.misses = meter.misses();
      got.steps = meter.steps();
      ExpectRunsBitwiseEqual(
          ref, got, std::string(name) + " pull batch=" + std::to_string(batch));
    }
  }
}

TEST(EngineBatchEquivalence, LatencyHistogramCountsEveryBatchedRequest) {
  const Trace t = MultiLevelTrace(500);
  PolicyPtr p = MakePolicyByName("landlord", 3);
  LatencyHistogram latency;
  TraceSource source(t);
  EngineOptions opts;
  opts.observer = &latency;
  opts.batch = 37;
  latency.Start();
  Engine engine(source, *p, opts);
  engine.Run();
  // OnBatchBegin/OnBatch amortize the clock reads but still book one
  // sample per request.
  EXPECT_EQ(latency.count(), t.length());
}

TEST(Observers, CostMeterMatchesSimResult) {
  const Trace t = MultiLevelTrace();
  PolicyPtr p = MakePolicyByName("landlord", 1);
  CostMeter meter;
  TraceSource source(t);
  EngineOptions opts;
  opts.observer = &meter;
  Engine engine(source, *p, opts);
  const SimResult res = engine.Run();
  EXPECT_DOUBLE_EQ(meter.fetch_cost(), res.fetch_cost);
  EXPECT_DOUBLE_EQ(meter.eviction_cost(), res.eviction_cost);
  EXPECT_EQ(meter.fetches(), res.fetches);
  EXPECT_EQ(meter.evictions(), res.evictions);
  EXPECT_EQ(meter.hits(), res.hits);
  EXPECT_EQ(meter.misses(), res.misses);
  EXPECT_EQ(meter.steps(), t.length());
}

TEST(Observers, EventLogObserverMatchesSimulateCompatShim) {
  const Trace t = MultiLevelTrace();
  std::vector<CacheEvent> via_shim;
  {
    PolicyPtr p = MakePolicyByName("lru", 1);
    SimOptions opts;
    opts.event_log = &via_shim;
    Simulate(t, *p, opts);
  }
  std::vector<CacheEvent> via_engine;
  {
    PolicyPtr p = MakePolicyByName("lru", 1);
    EventLogObserver log(&via_engine);
    TraceSource source(t);
    EngineOptions opts;
    opts.observer = &log;
    Engine engine(source, *p, opts);
    engine.Run();
  }
  ASSERT_EQ(via_shim.size(), via_engine.size());
  for (size_t i = 0; i < via_shim.size(); ++i) {
    EXPECT_EQ(via_shim[i].t, via_engine[i].t);
    EXPECT_EQ(via_shim[i].kind, via_engine[i].kind);
    EXPECT_EQ(via_shim[i].page, via_engine[i].page);
    EXPECT_EQ(via_shim[i].level, via_engine[i].level);
  }
}

TEST(Observers, MultiObserverFansOut) {
  const Trace t = MultiLevelTrace(200);
  CostMeter a, b;
  MultiObserver multi({&a, &b});
  PolicyPtr p = MakePolicyByName("fifo", 1);
  SimOptions opts;
  opts.observer = &multi;
  const SimResult res = Simulate(t, *p, opts);
  EXPECT_DOUBLE_EQ(a.eviction_cost(), res.eviction_cost);
  EXPECT_DOUBLE_EQ(b.eviction_cost(), res.eviction_cost);
  EXPECT_EQ(a.steps(), b.steps());
}

TEST(Observers, SimulateCombinesEventLogAndObserver) {
  const Trace t = MultiLevelTrace(200);
  std::vector<CacheEvent> log;
  CostMeter meter;
  PolicyPtr p = MakePolicyByName("lru", 1);
  SimOptions opts;
  opts.event_log = &log;
  opts.observer = &meter;
  const SimResult res = Simulate(t, *p, opts);
  EXPECT_DOUBLE_EQ(meter.eviction_cost(), res.eviction_cost);
  EXPECT_EQ(static_cast<int64_t>(log.size()), res.fetches + res.evictions);
}

TEST(Observers, LatencyHistogramRecordsEveryStep) {
  const Trace t = MultiLevelTrace();
  LatencyHistogram latency;
  PolicyPtr p = MakePolicyByName("landlord", 1);
  SimOptions opts;
  opts.observer = &latency;
  latency.Start();
  Simulate(t, *p, opts);
  EXPECT_EQ(latency.count(), t.length());
  EXPECT_GE(latency.Quantile(0.9), latency.Quantile(0.5));
  EXPECT_GE(static_cast<double>(latency.max_cycles()),
            latency.Quantile(0.99) * 0.0);  // quantiles are finite
  EXPECT_GT(latency.mean_cycles(), 0.0);
}

TEST(Observers, QuantileEdgeCases) {
  LatencyHistogram empty;
  EXPECT_EQ(empty.Quantile(0.5), 0.0);
  EXPECT_EQ(empty.count(), 0);
}

}  // namespace
}  // namespace wmlp
