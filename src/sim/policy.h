// Online policy interface for weighted multi-level paging.
//
// The simulator owns the cache; policies act through CacheOps, which records
// every action and charges costs. After Policy::Serve returns, the simulator
// verifies the request is satisfied and the cache is feasible
// (|cache| <= k, at most one copy per page is enforced structurally).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/cache_state.h"
#include "sim/step_observer.h"
#include "trace/instance.h"

namespace wmlp {

// Per-action event record (used by tests and the set-cover experiments to
// inspect which copies a policy evicted and when). Collected by
// EventLogObserver (engine/step_observers.h) or the Simulate compat shim.
struct CacheEvent {
  enum class Kind : uint8_t { kFetch, kEvict };
  Time t = 0;
  Kind kind = Kind::kFetch;
  PageId page = 0;
  Level level = 1;
};

class CacheOps {
 public:
  CacheOps(const Instance& instance, CacheState& state,
           StepObserver* observer = nullptr);

  const Instance& instance() const { return instance_; }
  const CacheState& cache() const { return state_; }

  // Fetch copy (p, level). Charges fetch cost w(p, level) to the fetch
  // meter (the headline cost metric is evictions; see SimResult).
  // Precondition: no copy of p cached (evict the old copy first) and level
  // valid. May temporarily overfill the cache within a Serve call; the
  // simulator checks |cache| <= k only after Serve returns.
  void Fetch(PageId p, Level level);

  // Evict p's copy; charges its eviction weight. Precondition: p cached.
  void Evict(PageId p);

  // Replace p's copy with a copy at `to_level`. Cost model: pays the
  // eviction weight of the *evicted* copy (and fetch meter for the new one),
  // exactly as an Evict + Fetch.
  void Replace(PageId p, Level to_level);

  Cost eviction_cost() const { return eviction_cost_; }
  Cost fetch_cost() const { return fetch_cost_; }
  int64_t evictions() const { return evictions_; }
  int64_t fetches() const { return fetches_; }

  // Set by the engine before each Serve call; timestamps observer
  // notifications.
  void set_time(Time t) { time_ = t; }

 private:
  const Instance& instance_;
  CacheState& state_;
  StepObserver* observer_ = nullptr;
  Time time_ = 0;
  Cost eviction_cost_ = 0.0;
  Cost fetch_cost_ = 0.0;
  int64_t evictions_ = 0;
  int64_t fetches_ = 0;
};

class Policy {
 public:
  virtual ~Policy() = default;

  // Called once before the first request.
  virtual void Attach(const Instance& instance) = 0;

  // Serve the request at time t. On return the cache must serve `r` and hold
  // at most k copies. Policies may rearrange the cache arbitrarily (needed
  // by the rounding algorithms, which evict non-requested pages).
  virtual void Serve(Time t, const Request& r, CacheOps& ops) = 0;

  // Bandwidth-aware batch streaming (docs/ARCHITECTURE.md §13): a batched
  // front (engine StepBatch, the server's shard drain) calls Prefetch(r)
  // roughly PrefetchDistance() requests before Serve(r), giving the policy
  // a chance to issue software prefetches for the per-page rows that Serve
  // will gather. Both are pure hints — never required for correctness, no
  // observable state may change — and the default (distance 0) keeps
  // policies with small working sets free of the extra virtual call.
  // Distances are capped by the caller; kernels::kBatchPrefetchDistance is
  // the tuned default for SoA-heavy policies (bench_perf_suite's gather
  // sweep).
  virtual int32_t PrefetchDistance() const { return 0; }
  virtual void Prefetch(const Request& /*r*/) const {}

  virtual std::string name() const = 0;
};

using PolicyPtr = std::unique_ptr<Policy>;

// Factory type used by the experiment harness: fresh policy per trial so
// parallel trials never share state. The uint64_t is the trial seed
// (ignored by deterministic policies).
using PolicyFactory = std::function<PolicyPtr(uint64_t seed)>;

}  // namespace wmlp
