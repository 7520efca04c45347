// Flat d-ary min-heap over a reusable arena.
//
// A drop-in replacement for std::priority_queue tuned for the hot serve
// paths: entries live contiguously in one backing vector that is cleared,
// never freed, so steady-state push/pop performs zero allocations; the
// 4-ary layout halves the tree height of a binary heap and keeps sift
// loops on one or two cache lines per level. Deletions are the caller's
// business (lazy deletion: push superseding entries and filter stale ones
// at pop time) — the heap itself only orders.
//
// Storage discipline (hot-path allocation gate, util/hot_path.h): the
// backing vector's size IS the capacity and a manual count `n_` tracks
// the live prefix. push() therefore compiles to an index write plus a
// branch to an out-of-line wmlp::coldpath grow helper — never an inlined
// vector::push_back, whose realloc branch the symbol-level gate would
// (correctly) flag as statically reachable from any WMLP_HOT caller even
// when reserve() made it unreachable dynamically.
//
// Rebuilds reuse the arena too: an in-place filter (waterfill's
// compaction) mutates entries() and shrinks with truncate(), then
// heapify() is Floyd's O(n) bottom-up construction with no intermediate
// vector.
//
// Ordering note: with a total-order comparator the pop sequence is the
// sorted sequence regardless of arity, so swapping a binary heap for this
// one is trajectory-invariant (waterfill orders by (key, page) pairs).
// Comparators with ties may surface tied entries in a different — but
// still deterministic — order than another heap implementation would.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/hot_path.h"

namespace wmlp {

// Less(a, b) == true iff a orders strictly before b; top() is the minimum.
template <typename T, typename Less>
class DHeap {
 public:
  static constexpr size_t kArity = 4;

  explicit DHeap(Less less = Less{}) : less_(less) {}

  bool empty() const { return n_ == 0; }
  size_t size() const { return n_; }
  size_t capacity() const { return storage_.size(); }
  void reserve(size_t n) {
    if (n > storage_.size()) coldpath::GrowTo(storage_, n);
  }
  // Drops all entries; keeps the arena's capacity.
  void clear() { n_ = 0; }

  const T& top() const {
    WMLP_CHECK(n_ != 0);
    return storage_[0];
  }

  void push(const T& value) {
    if (n_ == storage_.size()) coldpath::GrowTo(storage_, n_ + 1);
    storage_[n_++] = value;
    SiftUp(n_ - 1);
  }

  // Removes the minimum. The caller reads top() first.
  void pop() {
    WMLP_CHECK(n_ != 0);
    storage_[0] = storage_[n_ - 1];
    --n_;
    if (n_ != 0) SiftDown(0);
  }

  // Floyd's bottom-up heap construction: O(n).
  void heapify() {
    if (n_ < 2) return;
    for (size_t i = (n_ - 2) / kArity + 1; i-- > 0;) {
      // The next root's child block is the rebuild's next gather; hint it
      // in while this root sifts.
      if (i > 0) WMLP_PREFETCH_READ(storage_.data() + (i - 1) * kArity + 1);
      SiftDown(i);
    }
  }

  // Mutable view of the live entries for in-place coordinate rewrites or
  // filters before heapify(); shrink with truncate() after a filter.
  std::span<T> entries() { return std::span<T>(storage_.data(), n_); }
  std::span<const T> entries() const {
    return std::span<const T>(storage_.data(), n_);
  }

  // Drops entries past the first `n` (after an in-place std::remove_if
  // over entries()). Never grows.
  void truncate(size_t n) {
    WMLP_CHECK(n <= n_);
    n_ = n;
  }

 private:
  void SiftUp(size_t i) {
    const T value = storage_[i];
    while (i > 0) {
      const size_t parent = (i - 1) / kArity;
      if (!less_(value, storage_[parent])) break;
      storage_[i] = storage_[parent];
      i = parent;
    }
    storage_[i] = value;
  }

  void SiftDown(size_t i) {
    const T value = storage_[i];
    const size_t n = n_;
    for (;;) {
      const size_t first = i * kArity + 1;
      if (first >= n) break;
      const size_t last = first + kArity < n ? first + kArity : n;
      size_t best = first;
      for (size_t c = first + 1; c < last; ++c) {
        if (less_(storage_[c], storage_[best])) best = c;
      }
      // Speculatively pull the winning child's own child block: if the
      // descent continues it lands there next, and at kArity entries per
      // level the block usually straddles two cache lines.
      const size_t grand = best * kArity + 1;
      if (grand < n) {
        WMLP_PREFETCH_READ(storage_.data() + grand);
        const size_t tail = grand + kArity - 1;
        WMLP_PREFETCH_READ(storage_.data() + (tail < n ? tail : n - 1));
      }
      if (!less_(storage_[best], value)) break;
      storage_[i] = storage_[best];
      i = best;
    }
    storage_[i] = value;
  }

  std::vector<T> storage_;  // size == capacity; live prefix is [0, n_)
  size_t n_ = 0;
  Less less_;
};

}  // namespace wmlp
