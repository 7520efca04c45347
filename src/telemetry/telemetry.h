// Process-wide telemetry: typed Counter / Gauge / Histogram metrics over
// cheap thread-local shards, plus a span tracer (trace_span.h) and
// exporters (export.h).
//
// Design (mirrors util/audit.h's compile-gating idiom):
//
//   * The registry, metric classes, and exporters are ALWAYS compiled, so
//     tests and tools work in every build configuration. Only the hot-path
//     call sites are gated on `telemetry::kEnabled`, which is true when the
//     tree is configured with -DWMLP_TELEMETRY=ON. A guarded site
//
//         if constexpr (telemetry::kEnabled) {
//           WMLP_TELEMETRY_COUNTER(pushes, "wmlp_waterfill_heap_push_total");
//           pushes.Inc();
//         }
//
//     compiles to nothing at all in the default (OFF) build — the branch is
//     a constant false — so instrumented loops cost literally zero there.
//
//   * Each thread writes to its own shard: a fixed array of
//     std::atomic<uint64_t> cells updated with relaxed single-writer
//     load/store pairs. There is no read-modify-write and no sharing on the
//     write path, so workers never contend and TSan sees no race. Snapshot()
//     merges all shards (plus the folded values of exited threads) under the
//     registry mutex; it is a consistent-enough view, not an atomic cut.
//
//   * Cell encodings: a Counter is one u64 cell; a Gauge is one cell holding
//     a double bit pattern (merged by SUMMING across shards, so gauges must
//     be additive quantities — queue depths, in-flight counts); a Histogram
//     is sum(double bits) + one u64 cell per bucket, and its count is the
//     bucket total, so even a snapshot taken mid-Observe is self-consistent.
//
//   * Metric registration (GetCounter / GetGauge / GetHistogram) takes the
//     registry mutex and is NOT for per-request paths; call sites cache the
//     reference in a function-local static (what WMLP_TELEMETRY_COUNTER
//     expands to) or a member pointer.
//
// The registry is a leaky singleton: thread shards retire into an
// accumulator on thread exit, and nothing is destroyed at process exit, so
// instrumented code in static destructors stays safe.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace wmlp::telemetry {

#ifdef WMLP_TELEMETRY
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

enum class MetricType { kCounter, kGauge, kHistogram };

// Bucket layout for Histogram.
//   Power-of-two: 64 buckets; a sample v lands in bucket floor(log2(v))
//     clamped to [0, 63] (v < 1 lands in bucket 0). Matches the
//     LatencyHistogram convention: bucket b covers [2^b, 2^{b+1}).
//   Explicit: bounds[i] is the INCLUSIVE upper edge of bucket i; one final
//     overflow bucket catches everything above the last bound. Bounds must
//     be strictly increasing and finite.
struct HistogramLayout {
  static HistogramLayout PowerOfTwo() { return HistogramLayout{}; }
  static HistogramLayout Explicit(std::vector<double> upper_bounds) {
    HistogramLayout layout;
    layout.pow2 = false;
    layout.bounds = std::move(upper_bounds);
    return layout;
  }

  std::size_t num_buckets() const { return pow2 ? 64 : bounds.size() + 1; }

  bool pow2 = true;
  std::vector<double> bounds;  // empty when pow2
};

namespace detail {

// Upper bound on total cells across all metrics. 4096 cells = 32 KiB per
// thread shard; registering past the cap aborts (it means runaway dynamic
// metric names, which the naming scheme forbids).
inline constexpr std::size_t kMaxCells = 4096;

struct Shard {
  std::array<std::atomic<uint64_t>, kMaxCells> cells{};  // zero-initialized

  // Single-writer relaxed add: only the owning thread writes a live shard.
  void AddU64(std::size_t cell, uint64_t delta) {
    std::atomic<uint64_t>& c = cells[cell];
    c.store(c.load(std::memory_order_relaxed) + delta,
            std::memory_order_relaxed);
  }
  void AddF64(std::size_t cell, double delta);
  void SetF64(std::size_t cell, double value);
};

Shard& LocalShard();  // creates + registers this thread's shard on first use

}  // namespace detail

// Handles are value-semantic views onto a cell range; copying is free. They
// are obtained from Registry and stay valid forever (leaky singleton).
class Counter {
 public:
  void Inc() { Add(1); }
  void Add(uint64_t delta) { detail::LocalShard().AddU64(cell_, delta); }

 private:
  friend class Registry;
  explicit Counter(std::size_t cell) : cell_(cell) {}
  std::size_t cell_;
};

class Gauge {
 public:
  // Set overwrites this THREAD's contribution; the exported value is the
  // sum over threads (additive-gauge convention, see file header).
  void Set(double value) { detail::LocalShard().SetF64(cell_, value); }
  void Add(double delta) { detail::LocalShard().AddF64(cell_, delta); }

 private:
  friend class Registry;
  explicit Gauge(std::size_t cell) : cell_(cell) {}
  std::size_t cell_;
};

class Histogram {
 public:
  void Observe(double value);

 private:
  friend class Registry;
  Histogram(std::size_t base_cell, const HistogramLayout* layout)
      : base_cell_(base_cell), layout_(layout) {}
  std::size_t base_cell_;  // [sum, bucket 0, bucket 1, ...]
  const HistogramLayout* layout_;  // owned by the registry, never freed
};

// One metric's merged values, as collected by Registry::Collect().
struct MetricSnapshot {
  std::string name;
  MetricType type = MetricType::kCounter;
  uint64_t counter_value = 0;              // kCounter
  double gauge_value = 0.0;                // kGauge
  uint64_t hist_count = 0;                 // kHistogram
  double hist_sum = 0.0;                   //   "
  bool pow2 = true;                        //   "
  std::vector<double> bounds;              //   " (explicit layouts)
  std::vector<uint64_t> bucket_counts;     //   "
};

class Registry {
 public:
  // The process-wide instance. Never destroyed.
  static Registry& Get();

  // Idempotent by name; re-registering with a different type (or, for
  // histograms, a different layout) aborts — metric names are a global
  // namespace and silent aliasing would corrupt both users.
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name, const HistogramLayout& layout);

  // Merged view of all registered metrics (live shards + retired threads),
  // sorted by name for stable output. Safe to call while writers run;
  // values are per-cell coherent, not globally atomic.
  std::vector<MetricSnapshot> Collect() const;

  // Zeroes every metric VALUE (registrations and handles stay valid). For
  // tests; do not call while other threads are writing metrics.
  void ResetValuesForTest();

  // --- internal (detail::LocalShard / thread lifecycle) ---
  std::shared_ptr<detail::Shard> RegisterShardForCurrentThread();
  void RetireShard(const std::shared_ptr<detail::Shard>& shard);

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace wmlp::telemetry

// Registers (once) and caches a metric reference at the call site. Use
// inside `if constexpr (telemetry::kEnabled)` blocks so the OFF build
// compiles the site away entirely.
#define WMLP_TELEMETRY_COUNTER(var, name)    \
  static ::wmlp::telemetry::Counter& var =   \
      ::wmlp::telemetry::Registry::Get().GetCounter(name)
#define WMLP_TELEMETRY_GAUGE(var, name)      \
  static ::wmlp::telemetry::Gauge& var =     \
      ::wmlp::telemetry::Registry::Get().GetGauge(name)
#define WMLP_TELEMETRY_HISTOGRAM(var, name, layout) \
  static ::wmlp::telemetry::Histogram& var =        \
      ::wmlp::telemetry::Registry::Get().GetHistogram(name, layout)
