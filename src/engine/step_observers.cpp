#include "engine/step_observers.h"

#include <chrono>

#include "util/stats.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace wmlp {

uint64_t LatencyHistogram::NowCycles() {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#elif defined(__aarch64__)
  uint64_t cnt;
  asm volatile("mrs %0, cntvct_el0" : "=r"(cnt));
  return cnt;
#else
  return static_cast<uint64_t>(std::chrono::duration_cast<
                                   std::chrono::nanoseconds>(
                                   // Latency metric cycle-counter fallback.
                                   std::chrono::steady_clock::now()  // wmlp-lint-allow(wall-clock)
                                       .time_since_epoch())
                                   .count());
#endif
}

void LatencyHistogram::Start() {
  last_ = NowCycles();
  armed_ = true;
}

void LatencyHistogram::Record(uint64_t cycles) {
  // floor(log2(cycles)), with 0 cycles landing in bucket 0.
  const int bucket = cycles < 2 ? 0 : 63 - __builtin_clzll(cycles);
  ++counts_[static_cast<size_t>(bucket < kBuckets ? bucket : kBuckets - 1)];
  ++count_;
  total_cycles_ += cycles;
  if (cycles > max_cycles_) max_cycles_ = cycles;
}

void LatencyHistogram::RecordN(uint64_t cycles, int64_t n) {
  if (n <= 0) return;
  const int bucket = cycles < 2 ? 0 : 63 - __builtin_clzll(cycles);
  counts_[static_cast<size_t>(bucket < kBuckets ? bucket : kBuckets - 1)] +=
      n;
  count_ += n;
  total_cycles_ += cycles * static_cast<uint64_t>(n);
  if (cycles > max_cycles_) max_cycles_ = cycles;
}

void LatencyHistogram::OnStep(Time, const Request&, bool) {
  const uint64_t now = NowCycles();
  if (armed_) Record(now - last_);
  last_ = now;
  armed_ = true;
}

void LatencyHistogram::OnBatchBegin(Time, int64_t) { Start(); }

void LatencyHistogram::OnBatch(Time, std::span<const Request> reqs,
                               std::span<const uint8_t>) {
  const uint64_t now = NowCycles();
  const int64_t n = static_cast<int64_t>(reqs.size());
  if (armed_ && n > 0) {
    RecordN((now - last_) / static_cast<uint64_t>(n), n);
  }
  last_ = now;
  armed_ = true;
}

double LatencyHistogram::Quantile(double q) const {
  std::array<uint64_t, kBuckets> counts{};
  for (int b = 0; b < kBuckets; ++b) {
    counts[static_cast<size_t>(b)] =
        static_cast<uint64_t>(counts_[static_cast<size_t>(b)]);
  }
  return BucketQuantile(counts, {}, /*pow2=*/true, q);
}

}  // namespace wmlp
