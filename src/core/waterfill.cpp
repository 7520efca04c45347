#include "core/waterfill.h"

#include <algorithm>
#include <span>
#include <utility>

#include "telemetry/telemetry.h"
#include "util/audit.h"
#include "util/check.h"
#include "util/hot_path.h"

namespace wmlp {

WaterfillPolicy::~WaterfillPolicy() { PublishCounts(); }

void WaterfillPolicy::PublishCounts() {
  telemetry::AddCount("wmlp_waterfill_heap_push_total",
                      std::exchange(heap_pushes_, 0));
  telemetry::AddCount("wmlp_waterfill_heap_lazy_delete_total",
                      std::exchange(lazy_deletes_, 0));
  telemetry::AddCount("wmlp_waterfill_heap_compaction_total",
                      std::exchange(compactions_, 0));
  telemetry::AddCount("wmlp_waterfill_heap_stale_pop_total",
                      std::exchange(stale_pops_, 0));
  telemetry::AddCount("wmlp_waterfill_drown_evictions_total",
                      std::exchange(drowned_, 0));
}

void WaterfillPolicy::Attach(const Instance& instance) {
  PublishCounts();
  instance_ = &instance;
  heap_.clear();
  // Compaction keeps the heap within 2x the live set, and the live set is
  // bounded by the cache size; reserving the high-water mark up front
  // makes the steady-state serve path allocation-free.
  heap_.reserve(static_cast<size_t>(
      std::min<int64_t>(2 * instance.cache_size() + 65,
                        2 * instance.num_pages() + 65)));
  key_.assign(static_cast<size_t>(instance.num_pages()), 0.0);
  live_.assign(static_cast<size_t>(instance.num_pages()), 0);
  live_size_ = 0;
  offset_ = 0.0;
  audited_offset_ = 0.0;
  // Prefetch front pays off only once the per-page tables leave the LLC
  // (§13 footprint gate; kernels.h has the measurement rationale).
  const int64_t page_bytes =
      static_cast<int64_t>(sizeof(double) + sizeof(uint8_t));
  prefetch_dist_ =
      static_cast<int64_t>(instance.num_pages()) * page_bytes >
              kernels::kPrefetchMinFootprintBytes
          ? kernels::kBatchPrefetchDistance
          : 0;
}

void WaterfillPolicy::HeapInsert(PageId p) {
  ++heap_pushes_;
  heap_.push({key_[static_cast<size_t>(p)], p});
  live_[static_cast<size_t>(p)] = 1;
  ++live_size_;
}

void WaterfillPolicy::HeapErase(PageId p) {
  live_[static_cast<size_t>(p)] = 0;
  --live_size_;
  ++lazy_deletes_;
  // Lazy: the entry stays until it surfaces or a compaction sweeps it.
  if (heap_.size() > 64 &&
      heap_.size() > 2 * static_cast<size_t>(live_size_)) {
    ++compactions_;
    // In-place filter + Floyd rebuild over the heap's own arena, via the
    // strided compaction kernel (src/kernels): same predicate as the
    // scalar remove_if it replaces — bitwise identity of the stored key
    // snapshot (stale-entry detection), not a numeric tolerance test —
    // with software prefetch over the scattered key/live gathers.
    std::span<std::pair<double, PageId>> entries = heap_.entries();
    const size_t kept = kernels::WaterfillCompactBatch(
        entries.data(), entries.size(), key_.data(), live_.data());
    heap_.truncate(kept);
    heap_.heapify();
  }
}

PageId WaterfillPolicy::HeapPopMin() {
  for (;;) {
    WMLP_CHECK(!heap_.empty());
    const auto [key, p] = heap_.top();
    heap_.pop();
    const size_t sp = static_cast<size_t>(p);
    // Bitwise identity against the pushed snapshot (stale-entry filter).
    if (live_[sp] != 0 && key_[sp] == key) {  // wmlp-lint-allow(float-eq)
      live_[sp] = 0;
      --live_size_;
      return p;
    }
    ++stale_pops_;
  }
}

void WaterfillPolicy::AuditState(const CacheState& cache) const {
  constexpr double kTol = 1e-9;
  WMLP_AUDIT_CHECK(instance_ != nullptr, "waterfill: audit before Attach");
  WMLP_AUDIT_CHECK(offset_ >= audited_offset_ - kTol,
                   "waterfill: water clock ran backwards (offset "
                       << offset_ << " < previous " << audited_offset_
                       << ")");
  audited_offset_ = std::max(audited_offset_, offset_);
  WMLP_AUDIT_CHECK(
      live_size_ == static_cast<int64_t>(cache.pages().size()),
      "waterfill: heap has " << live_size_ << " entries for "
                             << cache.pages().size() << " cached pages");
  for (PageId p : cache.pages()) {
    WMLP_AUDIT_CHECK(live_[static_cast<size_t>(p)] != 0,
                     "waterfill: cached page " << p
                                               << " missing from heap");
    // Remaining credit w - f must stay in [0, w]: the copy has not drowned
    // (minimum-key eviction fires first) and water never falls.
    const double w = instance_->weight(p, cache.level_of(p));
    const double remaining = key_[static_cast<size_t>(p)] - offset_;
    WMLP_AUDIT_CHECK(remaining >= -kTol && remaining <= w + kTol,
                     "waterfill: page " << p << " remaining credit "
                                        << remaining << " outside [0, "
                                        << w << "]");
  }
}

double WaterfillPolicy::WaterLevel(PageId p, Level level) const {
  WMLP_CHECK(instance_ != nullptr);
  // key = offset_at_insert + remaining credit; credit = w - f. The global
  // offset has risen since, so f = w - (key - offset).
  const double remaining = key_[static_cast<size_t>(p)] - offset_;
  const double w = instance_->weight(p, level);
  return std::min(w, std::max(0.0, w - remaining));
}

// Hot entry point: the whole integral serve tree (ServeImpl, heap ops,
// CacheOps::Fetch/Evict) must stay off the allocator; growth is routed
// through wmlp::coldpath sinks (see util/hot_path.h and the DHeap storage
// discipline).
WMLP_HOT void WaterfillPolicy::Serve(Time t, const Request& r,
                                     CacheOps& ops) {
  ServeImpl(t, r, ops);
  if constexpr (audit::kEnabled) AuditState(ops.cache());
}

void WaterfillPolicy::ServeImpl(Time /*t*/, const Request& r,
                                CacheOps& ops) {
  const Instance& inst = ops.instance();
  const CacheState& cache = ops.cache();
  if (cache.serves(r)) return;  // step 1: already satisfied

  const Level cur = cache.level_of(r.page);
  if (cur != 0) {
    // Step 2a: another copy of p_t at a lower level; replace it directly.
    HeapErase(r.page);
    ops.Replace(r.page, r.level);
    key_[static_cast<size_t>(r.page)] =
        offset_ + inst.weight(r.page, r.level);
    HeapInsert(r.page);
    return;
  }

  // Step 2b: water-fill eviction if the cache is full.
  if (cache.size() == cache.capacity()) {
    WMLP_CHECK(live_size_ > 0);
    const PageId victim = HeapPopMin();
    // Raise the water until the minimum copy drowns.
    offset_ = std::max(offset_, key_[static_cast<size_t>(victim)]);
    ++drowned_;
    ops.Evict(victim);
  }
  ops.Fetch(r.page, r.level);  // f(p_t, i_t) = 0 => remaining credit = w
  key_[static_cast<size_t>(r.page)] = offset_ + inst.weight(r.page, r.level);
  HeapInsert(r.page);
}

}  // namespace wmlp
