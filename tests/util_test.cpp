#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "util/bitkey_index.h"
#include "util/dheap.h"
#include "util/ring_buffer.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/zipf.h"

namespace wmlp {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, DoubleMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BoundedInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Rng, BoundedUniform) {
  Rng rng(5);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBounded(10)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == -3;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
    EXPECT_FALSE(rng.NextBernoulli(-0.5));
    EXPECT_TRUE(rng.NextBernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(DeriveSeed, ChildStreamsIndependent) {
  const uint64_t s1 = DeriveSeed(123, 0);
  const uint64_t s2 = DeriveSeed(123, 1);
  EXPECT_NE(s1, s2);
  EXPECT_EQ(s1, DeriveSeed(123, 0));  // deterministic
}

TEST(Zipf, UniformWhenAlphaZero) {
  ZipfSampler z(4, 0.0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(z.Probability(i), 0.25, 1e-12);
  }
}

TEST(Zipf, ProbabilitiesSumToOne) {
  ZipfSampler z(100, 0.9);
  double sum = 0.0;
  for (int i = 0; i < 100; ++i) sum += z.Probability(i);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, ProbabilitiesMonotone) {
  ZipfSampler z(50, 1.2);
  for (int i = 1; i < 50; ++i) {
    EXPECT_LE(z.Probability(i), z.Probability(i - 1) + 1e-15);
  }
}

TEST(Zipf, ExactRatios) {
  ZipfSampler z(3, 1.0);
  // Weights 1, 1/2, 1/3.
  EXPECT_NEAR(z.Probability(0) / z.Probability(1), 2.0, 1e-9);
  EXPECT_NEAR(z.Probability(0) / z.Probability(2), 3.0, 1e-9);
}

TEST(Zipf, EmpiricalMatchesExact) {
  ZipfSampler z(8, 0.8);
  Rng rng(21);
  std::vector<int> counts(8, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<size_t>(z.Sample(rng))];
  for (int i = 0; i < 8; ++i) {
    EXPECT_NEAR(static_cast<double>(counts[static_cast<size_t>(i)]) / n,
                z.Probability(i), 0.01);
  }
}

TEST(RunningStat, MeanVarianceMinMax) {
  RunningStat rs;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.Add(x);
  EXPECT_EQ(rs.count(), 8);
  EXPECT_NEAR(rs.mean(), 5.0, 1e-12);
  EXPECT_NEAR(rs.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(rs.min(), 2.0);
  EXPECT_EQ(rs.max(), 9.0);
}

TEST(RunningStat, MergeEqualsSequential) {
  RunningStat a, b, all;
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble() * 10.0;
    (i % 2 == 0 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStat, EmptyAndSingle) {
  RunningStat rs;
  EXPECT_EQ(rs.mean(), 0.0);
  EXPECT_EQ(rs.variance(), 0.0);
  rs.Add(3.5);
  EXPECT_EQ(rs.mean(), 3.5);
  EXPECT_EQ(rs.variance(), 0.0);
  EXPECT_EQ(rs.ci95_halfwidth(), 0.0);
}

TEST(Stats, Percentile) {
  std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_NEAR(Percentile(xs, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(Percentile(xs, 1.0), 5.0, 1e-12);
  EXPECT_NEAR(Percentile(xs, 0.5), 3.0, 1e-12);
  EXPECT_NEAR(Percentile(xs, 0.25), 2.0, 1e-12);
}

TEST(Stats, GeoMean) {
  std::vector<double> xs = {1.0, 4.0, 16.0};
  EXPECT_NEAR(GeoMean(xs), 4.0, 1e-9);
}

TEST(Stats, MeanAndStdDev) {
  std::vector<double> xs = {1.0, 2.0, 3.0};
  EXPECT_NEAR(Mean(xs), 2.0, 1e-12);
  EXPECT_NEAR(StdDev(xs), 1.0, 1e-12);
}

// --- DHeap ---------------------------------------------------------------

struct IntLess {
  bool operator()(int a, int b) const { return a < b; }
};

TEST(DHeap, PopsInSortedOrder) {
  Rng rng(3);
  DHeap<int, IntLess> heap;
  std::vector<int> values;
  for (int i = 0; i < 1000; ++i) {
    const int v = static_cast<int>(rng.NextBounded(500));
    values.push_back(v);
    heap.push(v);
  }
  std::sort(values.begin(), values.end());
  for (const int expected : values) {
    ASSERT_FALSE(heap.empty());
    EXPECT_EQ(heap.top(), expected);
    heap.pop();
  }
  EXPECT_TRUE(heap.empty());
}

TEST(DHeap, HeapifyMatchesIncrementalPushes) {
  Rng rng(9);
  DHeap<int, IntLess> pushed, bulk;
  std::vector<int> values;
  for (int i = 0; i < 500; ++i) {
    const int v = static_cast<int>(rng.NextBounded(1000));
    values.push_back(v);
    pushed.push(v);
    bulk.push(v);
  }
  // Overwrite the entries in arrival order, which is no heap, and rebuild.
  std::copy(values.begin(), values.end(), bulk.entries().begin());
  bulk.heapify();
  while (!pushed.empty()) {
    ASSERT_FALSE(bulk.empty());
    EXPECT_EQ(bulk.top(), pushed.top());
    bulk.pop();
    pushed.pop();
  }
  EXPECT_TRUE(bulk.empty());
}

TEST(DHeap, ClearKeepsArenaCapacityAndReusesIt) {
  DHeap<int, IntLess> heap;
  for (int i = 0; i < 100; ++i) heap.push(100 - i);
  const size_t cap = heap.capacity();
  heap.clear();
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.capacity(), cap);
  heap.push(5);
  heap.push(1);
  EXPECT_EQ(heap.top(), 1);
}

TEST(DHeap, EntriesFilterAndTruncateRebuild) {
  DHeap<int, IntLess> heap;
  for (int i = 0; i < 50; ++i) heap.push(i);
  // Drop the odd entries in place, as waterfill's compaction does.
  std::span<int> entries = heap.entries();
  auto last = std::remove_if(entries.begin(), entries.end(),
                             [](int v) { return v % 2 != 0; });
  heap.truncate(static_cast<size_t>(last - entries.begin()));
  heap.heapify();
  for (int expected = 0; expected < 50; expected += 2) {
    ASSERT_FALSE(heap.empty());
    EXPECT_EQ(heap.top(), expected);
    heap.pop();
  }
  EXPECT_TRUE(heap.empty());
}

// --- BitKeyIndex ---------------------------------------------------------

TEST(BitKeyIndex, InsertFindAndGrow) {
  BitKeyIndex index;
  // Far past the initial 16 slots: forces several grows.
  for (uint64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(index.Find(i * 0x9e3779b9ULL), -1);
    index.Insert(i * 0x9e3779b9ULL, static_cast<int32_t>(i));
  }
  EXPECT_EQ(index.size(), 1000);
  for (uint64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(index.Find(i * 0x9e3779b9ULL), static_cast<int32_t>(i));
  }
  index.Reset();
  EXPECT_EQ(index.size(), 0);
  EXPECT_EQ(index.Find(0x9e3779b9ULL), -1);
}

TEST(BitKeyIndex, AdjacentDoubleBitPatternsStayDistinct) {
  // The motivating case: doubles one ulp apart collide under any
  // truncating key (cast to float, fixed-point scale) but must map to
  // distinct groups. Keying on the bit pattern makes collision impossible.
  BitKeyIndex index;
  double w = 2.0;
  for (int32_t i = 0; i < 8; ++i) {
    const uint64_t key = std::bit_cast<uint64_t>(w);
    EXPECT_EQ(index.Find(key), -1) << "ulp " << i;
    index.Insert(key, i);
    w = std::nextafter(w, 3.0);
  }
  w = 2.0;
  for (int32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(index.Find(std::bit_cast<uint64_t>(w)), i);
    EXPECT_EQ(static_cast<double>(static_cast<float>(w)), 2.0)
        << "weights must collide under float truncation for this test "
           "to exercise anything";
    w = std::nextafter(w, 3.0);
  }
}

TEST(BitKeyIndex, SignedZerosAreDistinctKeys) {
  BitKeyIndex index;
  index.Insert(std::bit_cast<uint64_t>(0.0), 0);
  EXPECT_EQ(index.Find(std::bit_cast<uint64_t>(-0.0)), -1);
  index.Insert(std::bit_cast<uint64_t>(-0.0), 1);
  EXPECT_EQ(index.Find(std::bit_cast<uint64_t>(0.0)), 0);
  EXPECT_EQ(index.Find(std::bit_cast<uint64_t>(-0.0)), 1);
}

// --- RingBuffer ----------------------------------------------------------

TEST(RingBuffer, FifoAcrossWrapAndRegrow) {
  RingBuffer<int> ring;
  int next_in = 0, next_out = 0;
  Rng rng(17);
  // Interleaved bulk appends and drains force wraps and several regrows;
  // contents must stay an exact FIFO throughout.
  for (int round = 0; round < 200; ++round) {
    std::vector<int> batch(rng.NextBounded(37));
    for (int& v : batch) v = next_in++;
    ring.append(std::span<const int>(batch.data(), batch.size()));
    const size_t drain = rng.NextBounded(ring.size() + 1);
    for (size_t i = 0; i < drain; ++i) {
      ASSERT_EQ(ring.front(), next_out++);
      ring.pop_front();
    }
    EXPECT_EQ(ring.size(), static_cast<size_t>(next_in - next_out));
  }
  while (!ring.empty()) {
    ASSERT_EQ(ring.front(), next_out++);
    ring.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(RingBuffer, BackAndPushBack) {
  RingBuffer<int> ring;
  for (int i = 0; i < 50; ++i) {
    ring.push_back(i);
    EXPECT_EQ(ring.back(), i);
    EXPECT_EQ(ring.front(), 0);
  }
  ring.clear();
  EXPECT_TRUE(ring.empty());
  ring.push_back(7);
  EXPECT_EQ(ring.front(), 7);
  EXPECT_EQ(ring.back(), 7);
}

TEST(RingBuffer, ReserveRoundsUpAndAppendDoesNotReallocate) {
  RingBuffer<int> ring;
  ring.reserve(100);  // rounds up to 128
  std::vector<int> batch(100);
  for (int i = 0; i < 100; ++i) batch[i] = i;
  // Offset the head so the append wraps.
  ring.append(std::span<const int>(batch.data(), 60));
  for (int i = 0; i < 40; ++i) ring.pop_front();
  ring.append(std::span<const int>(batch.data() + 60, 40));
  const int* stable = &ring.front();
  ring.append(std::span<const int>(batch.data(), 68));  // fills to 128
  EXPECT_EQ(&ring.front(), stable);  // no regrow happened
  for (int i = 40; i < 60; ++i) {
    EXPECT_EQ(ring.front(), i);
    ring.pop_front();
  }
}

}  // namespace
}  // namespace wmlp
