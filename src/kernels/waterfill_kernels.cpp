// Waterfill heap-arena compaction kernel: the strided stale-entry filter
// behind WaterfillPolicy::HeapErase. The predicate is the same bitwise
// key-snapshot identity HeapPopMin applies one entry at a time (vector
// CmpEq == scalar ==: NaN never matches, +0.0 matches -0.0, on every
// backend), and compaction is order-preserving, so kernel and scalar
// twin produce identical arenas — the §13 parity contract.
#include "kernels/kernels.h"

#include <cstdint>

#include "util/hot_path.h"
#include "util/simd.h"

namespace wmlp::kernels {

namespace {

// Entries ahead of the current block whose per-page rows get
// prefetched: the gather of key[page] is the pass's only irregular
// access, and covering its miss latency is where the kernel's win over
// the plain std::remove_if lives (the perf driver's gather sweep).
constexpr size_t kCompactPrefetch = 16;

template <class V>
size_t WaterfillCompactImpl(std::pair<double, int32_t>* entries, size_t n,
                            const double* key, const uint8_t* live) {
  size_t out = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (size_t l = 0; l < 4; ++l) {
      const size_t ahead = i + l + kCompactPrefetch;
      if (ahead < n) {
        const size_t sp = static_cast<size_t>(entries[ahead].second);
        WMLP_PREFETCH_READ(key + sp);
        WMLP_PREFETCH_READ(live + sp);
      }
    }
    double snap[4];
    double cur[4];
    uint8_t alive[4];
    for (size_t l = 0; l < 4; ++l) {
      const std::pair<double, int32_t>& e = entries[i + l];
      const size_t sp = static_cast<size_t>(e.second);
      snap[l] = e.first;
      cur[l] = key[sp];
      alive[l] = live[sp];
    }
    const int eq = V::MoveMask(V::CmpEq(V::Load(snap), V::Load(cur)));
    for (size_t l = 0; l < 4; ++l) {
      if (alive[l] != 0 && ((eq >> l) & 1) != 0) {
        entries[out++] = entries[i + l];
      }
    }
  }
  for (; i < n; ++i) {
    const std::pair<double, int32_t>& e = entries[i];
    const size_t sp = static_cast<size_t>(e.second);
    const bool match = key[sp] == e.first;  // wmlp-lint-allow(float-eq)
    if (live[sp] != 0 && match) entries[out++] = entries[i];
  }
  return out;
}

}  // namespace

size_t WaterfillCompactBatchScalar(std::pair<double, int32_t>* entries,
                                   size_t n, const double* key,
                                   const uint8_t* live) {
  return WaterfillCompactImpl<simd::VecScalar>(entries, n, key, live);
}

size_t WaterfillCompactBatch(std::pair<double, int32_t>* entries,
                             size_t n, const double* key,
                             const uint8_t* live) {
  if (ScalarForced()) {
    return WaterfillCompactBatchScalar(entries, n, key, live);
  }
  return WaterfillCompactImpl<simd::VecNative>(entries, n, key, live);
}

}  // namespace wmlp::kernels
