// ServeTrace's allocation count does not grow with the page universe.
//
// Every call validates, partitions and attaches anew, but the
// ShardMap builds each shard instance as one flat array, so the call's
// heap allocations depend on the shard and client counts, not on n. The
// binary links bench/alloc_hook.cpp, whose counting operator new is
// compiled in only for optimized builds; elsewhere the test skips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "alloc_hook.h"
#include "server/server.h"
#include "trace/generators.h"

namespace wmlp {
namespace {

constexpr int64_t kRequests = 20'000;

Trace MakeTrace(int32_t n) {
  Instance inst(n, n / 4, 2,
                MakeWeights(n, 2, WeightModel::kGeometricLevels, 4.0, 7));
  return GenZipf(std::move(inst), kRequests, 0.8, LevelMix::UniformMix(2),
                 8);
}

// Fewest allocations over a few ServeTrace calls: the inbox rings grow in
// steps that depend on how far the clients run ahead of the workers.
int64_t ServeAllocs(const Trace& trace, int32_t shards, int32_t clients) {
  ServeOptions options;
  options.shards = shards;
  options.clients = clients;
  options.policy = "waterfill";
  int64_t fewest = INT64_MAX;
  for (int rep = 0; rep < 3; ++rep) {
    const int64_t before = bench::AllocCount();
    const ServeReport report = ServeTrace(trace, options);
    fewest = std::min(fewest, bench::AllocCount() - before);
    EXPECT_EQ(report.requests, kRequests);
  }
  return fewest;
}

TEST(ServeSetupAllocTest, AllocationsDoNotGrowWithPages) {
  if (!bench::AllocCountingEnabled()) {
    GTEST_SKIP() << "allocation counting is compiled out of this build";
  }
  // Far below one allocation per page of the larger universe.
  constexpr int64_t kSlack = 64;
  const Trace small = MakeTrace(4'096);
  const Trace large = MakeTrace(65'536);
  for (const int32_t shards : {1, 2, 8}) {
    for (const int32_t clients : {1, 4}) {
      const int64_t at_small = ServeAllocs(small, shards, clients);
      const int64_t at_large = ServeAllocs(large, shards, clients);
      EXPECT_LE(at_large, at_small + kSlack)
          << "shards=" << shards << " clients=" << clients << ": "
          << at_small << " allocations at n = 4096, " << at_large
          << " at n = 65536";
    }
  }
}

}  // namespace
}  // namespace wmlp
