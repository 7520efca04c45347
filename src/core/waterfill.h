// Deterministic O(k)-competitive water-filling algorithm (Section 4.1).
//
// Each cached copy (q, i_q) carries a water level f in [0, w(q, i_q)]; a
// fetched copy starts at f = 0. On a miss with a full cache, all cached
// copies' water rises at rate 1 until some copy reaches its weight; that
// copy is evicted. Implemented with a lazy global offset over a
// lazy-deletion binary min-heap of "remaining credit + offset" keys, so
// each request costs amortized O(log k) with no per-node allocation (the
// ordered-set version allocated a red-black node per insert).
//
// When a requested page holds a copy at too low a level, that copy is
// replaced by the requested level directly (step 2a) with no water-fill.
//
// The 2k bound of Theorem 4.1 assumes 2-separated level weights
// (w(q,i) >= 2 w(q,i+1)); for general weights the ratio is 4k after the
// paper's level-merging preprocessing (Instance::MergeLevels +
// ApplyLevelMap), which callers may apply; the policy itself is correct on
// any monotone weights.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "kernels/kernels.h"
#include "sim/policy.h"
#include "util/dheap.h"
#include "util/hot_path.h"

namespace wmlp {

class WaterfillPolicy final : public Policy {
 public:
  WaterfillPolicy() = default;
  // Publishes the heap counts (see PublishCounts).
  ~WaterfillPolicy() override;
  WaterfillPolicy(const WaterfillPolicy&) = delete;
  WaterfillPolicy& operator=(const WaterfillPolicy&) = delete;

  void Attach(const Instance& instance) override;
  void Serve(Time t, const Request& r, CacheOps& ops) override;
  std::string name() const override { return "waterfill"; }

  // Batched-front prefetch hints (sim/policy.h): pull the per-page key and
  // liveness rows the serve will touch. Gated on the §13 state footprint
  // — the key/live tables are 9 bytes/page, LLC-resident far past every
  // bench size, so the front stays off until they genuinely spill.
  int32_t PrefetchDistance() const override { return prefetch_dist_; }
  void Prefetch(const Request& r) const override {
    const size_t sp = static_cast<size_t>(r.page);
    WMLP_PREFETCH_READ(key_.data() + sp);
    WMLP_PREFETCH_WRITE(live_.data() + sp);
  }

  // Current water level f(p, level) in [0, w(p, level)] of a cached copy
  // (Theorem 4.1's analysis state; `level` must be the copy's level).
  // Exposed for the potential-function verification tests.
  double WaterLevel(PageId p, Level level) const;

  // WMLP_AUDIT auditor (also callable directly from tests): checks that
  // `cache` and the internal heap describe the same set of copies, that
  // each cached copy's remaining credit lies in [0, w], and that the
  // global water clock never ran backwards since the last audit.
  void AuditState(const CacheState& cache) const;

 private:
  void ServeImpl(Time t, const Request& r, CacheOps& ops);
  void HeapInsert(PageId p);
  void HeapErase(PageId p);
  // Pops stale entries until the top is live, then removes and returns it.
  PageId HeapPopMin();
  // Adds the heap counts below to their registry counters and zeroes them.
  void PublishCounts();

  struct EntryBefore {
    bool operator()(const std::pair<double, PageId>& a,
                    const std::pair<double, PageId>& b) const {
      return a < b;
    }
  };

  const Instance* instance_ = nullptr;
  // Flat 4-ary min-heap (shared util/dheap.h arena heap) ordered by
  // key = (remaining credit + offset at insert time); the minimum key is
  // the next copy to drown. Erases are lazy: an entry is live iff its page
  // is flagged live AND its key matches the page's current key (a page
  // re-inserted at a new key strands its old entry). Ties break on PageId
  // — a total order, so the pop sequence (and hence the trajectory) is
  // independent of the heap's arity.
  DHeap<std::pair<double, PageId>, EntryBefore> heap_;
  std::vector<double> key_;    // per page; valid while cached
  std::vector<uint8_t> live_;  // per page; 1 iff currently cached
  int64_t live_size_ = 0;
  int32_t prefetch_dist_ = 0;  // fixed at Attach (footprint gate)
  double offset_ = 0.0;
  // High-water mark of offset_ seen by AuditState (water monotonicity).
  mutable double audited_offset_ = 0.0;
  // Heap work since the last publication (on re-Attach and destruction),
  // counted in place so Serve makes no registry call.
  int64_t heap_pushes_ = 0;
  int64_t lazy_deletes_ = 0;
  int64_t compactions_ = 0;
  int64_t stale_pops_ = 0;
  int64_t drowned_ = 0;
};

}  // namespace wmlp
