#include <gtest/gtest.h>

#include "sim/cache_state.h"
#include "sim/simulator.h"

namespace wmlp {
namespace {

Instance TwoLevel(int32_t n = 4, int32_t k = 2) {
  return Instance(n, k, 2,
                  std::vector<std::vector<Cost>>(
                      static_cast<size_t>(n), std::vector<Cost>{10.0, 3.0}));
}

TEST(CacheState, InsertRemoveBasics) {
  const Instance inst = TwoLevel();
  CacheState c(inst);
  EXPECT_EQ(c.size(), 0);
  EXPECT_EQ(c.capacity(), 2);
  c.Insert(1, 2);
  EXPECT_TRUE(c.contains(1));
  EXPECT_EQ(c.level_of(1), 2);
  EXPECT_EQ(c.size(), 1);
  EXPECT_EQ(c.Remove(1), 2);
  EXPECT_FALSE(c.contains(1));
  EXPECT_EQ(c.size(), 0);
}

TEST(CacheState, ServesRespectsLevels) {
  const Instance inst = TwoLevel();
  CacheState c(inst);
  c.Insert(0, 2);
  EXPECT_TRUE(c.serves(Request{0, 2}));
  EXPECT_FALSE(c.serves(Request{0, 1}));  // level-2 copy can't serve level 1
  c.Remove(0);
  c.Insert(0, 1);
  EXPECT_TRUE(c.serves(Request{0, 1}));
  EXPECT_TRUE(c.serves(Request{0, 2}));  // level-1 copy serves everything
}

TEST(CacheState, OneCopyRuleFatal) {
  const Instance inst = TwoLevel();
  CacheState c(inst);
  c.Insert(0, 1);
  EXPECT_DEATH(c.Insert(0, 2), "already cached");
}

TEST(CacheState, RemoveAbsentFatal) {
  const Instance inst = TwoLevel();
  CacheState c(inst);
  EXPECT_DEATH(c.Remove(3), "not cached");
}

TEST(CacheState, PagesListTracksContents) {
  const Instance inst = TwoLevel(8, 8);
  CacheState c(inst);
  c.Insert(1, 1);
  c.Insert(5, 2);
  c.Insert(3, 1);
  c.Remove(5);
  ASSERT_EQ(c.pages().size(), 2u);
  EXPECT_TRUE((c.pages()[0] == 1 && c.pages()[1] == 3) ||
              (c.pages()[0] == 3 && c.pages()[1] == 1));
}

// A policy that keeps the most recent pages, fetching requested levels.
class TestLru final : public Policy {
 public:
  void Attach(const Instance&) override { recency_.clear(); }
  void Serve(Time, const Request& r, CacheOps& ops) override {
    std::erase(recency_, r.page);
    recency_.push_back(r.page);
    if (!ops.cache().serves(r)) {
      if (ops.cache().contains(r.page)) {
        ops.Replace(r.page, r.level);
      } else {
        if (ops.cache().size() == ops.cache().capacity()) {
          for (PageId q : recency_) {
            if (q != r.page && ops.cache().contains(q)) {
              ops.Evict(q);
              break;
            }
          }
        }
        ops.Fetch(r.page, r.level);
      }
    }
  }
  std::string name() const override { return "test-lru"; }

 private:
  std::vector<PageId> recency_;
};

// A policy that never fetches: must trip the strict check.
class NoopPolicy final : public Policy {
 public:
  void Attach(const Instance&) override {}
  void Serve(Time, const Request&, CacheOps&) override {}
  std::string name() const override { return "noop"; }
};

// A policy that overfills the cache.
class GreedyHoarder final : public Policy {
 public:
  void Attach(const Instance&) override {}
  void Serve(Time, const Request& r, CacheOps& ops) override {
    if (!ops.cache().contains(r.page)) ops.Fetch(r.page, r.level);
  }
  std::string name() const override { return "hoarder"; }
};

TEST(Simulator, CountsHitsAndMisses) {
  Trace t{TwoLevel(), {{0, 2}, {1, 2}, {0, 2}, {2, 2}, {0, 2}}};
  TestLru policy;
  const SimResult res = Simulate(t, policy);
  EXPECT_EQ(res.misses, 3);
  EXPECT_EQ(res.hits, 2);
}

TEST(Simulator, EvictionCostUsesEvictedCopyWeight) {
  // k=1: request (0,1), then (1,2): evicting (0,1) costs 10.
  Instance inst = TwoLevel(4, 1);
  Trace t{inst, {{0, 1}, {1, 2}}};
  TestLru policy;
  const SimResult res = Simulate(t, policy);
  EXPECT_EQ(res.evictions, 1);
  EXPECT_NEAR(res.eviction_cost, 10.0, 1e-12);
  EXPECT_NEAR(res.fetch_cost, 10.0 + 3.0, 1e-12);
}

TEST(Simulator, ForcedReplacementChargesOldCopy) {
  // (0,2) cached; request (0,1) forces replacing the level-2 copy (cost 3).
  Instance inst = TwoLevel(4, 2);
  Trace t{inst, {{0, 2}, {0, 1}}};
  TestLru policy;
  const SimResult res = Simulate(t, policy);
  EXPECT_EQ(res.misses, 2);
  EXPECT_NEAR(res.eviction_cost, 3.0, 1e-12);
}

TEST(Simulator, StrictUnservedIsFatal) {
  Trace t{TwoLevel(), {{0, 2}}};
  NoopPolicy policy;
  EXPECT_DEATH(Simulate(t, policy), "unserved");
}

TEST(Simulator, StrictOverfillIsFatal) {
  Instance inst = TwoLevel(4, 2);
  Trace t{inst, {{0, 2}, {1, 2}, {2, 2}}};
  GreedyHoarder policy;
  EXPECT_DEATH(Simulate(t, policy), "overfilled");
}

TEST(Simulator, EventLogRecordsActions) {
  Instance inst = TwoLevel(4, 1);
  Trace t{inst, {{0, 2}, {1, 2}}};
  TestLru policy;
  std::vector<CacheEvent> log;
  SimOptions opts;
  opts.event_log = &log;
  Simulate(t, policy, opts);
  ASSERT_EQ(log.size(), 3u);  // fetch 0, evict 0, fetch 1
  EXPECT_EQ(log[0].kind, CacheEvent::Kind::kFetch);
  EXPECT_EQ(log[0].page, 0);
  EXPECT_EQ(log[0].t, 0);
  EXPECT_EQ(log[1].kind, CacheEvent::Kind::kEvict);
  EXPECT_EQ(log[1].page, 0);
  EXPECT_EQ(log[1].t, 1);
  EXPECT_EQ(log[2].kind, CacheEvent::Kind::kFetch);
  EXPECT_EQ(log[2].page, 1);
}

TEST(Simulator, HitRate) {
  SimResult r;
  r.hits = 3;
  r.misses = 1;
  EXPECT_NEAR(r.hit_rate(), 0.75, 1e-12);
  SimResult empty;
  EXPECT_EQ(empty.hit_rate(), 0.0);
}

}  // namespace
}  // namespace wmlp
