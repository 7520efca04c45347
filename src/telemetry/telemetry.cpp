#include "telemetry/telemetry.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <map>

#include "util/check.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace wmlp::telemetry {

namespace detail {

void Shard::AddF64(std::size_t cell, double delta) {
  std::atomic<uint64_t>& c = cells[cell];
  double current = std::bit_cast<double>(c.load(std::memory_order_relaxed));
  c.store(std::bit_cast<uint64_t>(current + delta), std::memory_order_relaxed);
}

void Shard::SetF64(std::size_t cell, double value) {
  cells[cell].store(std::bit_cast<uint64_t>(value), std::memory_order_relaxed);
}

namespace {

struct ThreadShardHolder {
  std::shared_ptr<Shard> shard;
  ThreadShardHolder() : shard(Registry::Get().RegisterShardForCurrentThread()) {}
  ~ThreadShardHolder() { Registry::Get().RetireShard(shard); }
};

}  // namespace

Shard& LocalShard() {
  thread_local ThreadShardHolder holder;
  return *holder.shard;
}

}  // namespace detail

namespace {

enum class CellKind : uint8_t { kU64, kF64 };

struct MetricInfo {
  MetricType type;
  std::size_t base_cell;
  std::size_t num_cells;
  const HistogramLayout* layout = nullptr;  // histograms only
};

bool SameLayout(const HistogramLayout& a, const HistogramLayout& b) {
  return a.pow2 == b.pow2 && a.bounds == b.bounds;
}

}  // namespace

struct Registry::Impl {
  mutable Mutex mu;
  // name -> metric, sorted for stable Collect() output.
  std::map<std::string, MetricInfo, std::less<>> metrics GUARDED_BY(mu);
  // One entry per allocated cell.
  std::vector<CellKind> cell_kinds GUARDED_BY(mu);
  std::size_t next_cell GUARDED_BY(mu) = 0;
  // Handle storage: deque for pointer stability across registrations.
  std::deque<Counter> counters GUARDED_BY(mu);
  std::deque<Gauge> gauges GUARDED_BY(mu);
  std::deque<Histogram> histograms GUARDED_BY(mu);
  std::deque<HistogramLayout> layouts GUARDED_BY(mu);
  std::map<std::string, Counter*, std::less<>> counter_handles GUARDED_BY(mu);
  std::map<std::string, Gauge*, std::less<>> gauge_handles GUARDED_BY(mu);
  std::map<std::string, Histogram*, std::less<>> histogram_handles
      GUARDED_BY(mu);
  // Live shards (one per running thread that touched a metric) + the folded
  // values of threads that have exited.
  std::vector<std::shared_ptr<detail::Shard>> live_shards GUARDED_BY(mu);
  std::array<uint64_t, detail::kMaxCells> retired_u64 GUARDED_BY(mu) = {};
  std::array<double, detail::kMaxCells> retired_f64 GUARDED_BY(mu) = {};

  std::size_t AllocCells(std::size_t count, CellKind first_kind)
      REQUIRES(mu) {
    WMLP_CHECK_MSG(next_cell + count <= detail::kMaxCells,
                   "telemetry: metric cell budget exhausted (dynamic metric "
                   "names leaking?)");
    std::size_t base = next_cell;
    next_cell += count;
    cell_kinds.resize(next_cell, CellKind::kU64);
    cell_kinds[base] = first_kind;
    return base;
  }
};

Registry::Impl& Registry::impl() const {
  static Impl* impl = new Impl;  // leaky: see file header
  return *impl;
}

Registry& Registry::Get() {
  static Registry* registry = new Registry;  // leaky
  return *registry;
}

Counter& Registry::GetCounter(std::string_view name) {
  Impl& im = impl();
  MutexLock lock(im.mu);
  auto it = im.metrics.find(name);
  if (it != im.metrics.end()) {
    WMLP_CHECK_MSG(it->second.type == MetricType::kCounter,
                   "telemetry: metric re-registered with a different type");
    return *im.counter_handles.find(name)->second;
  }
  WMLP_CHECK_MSG(!name.empty(), "telemetry: empty metric name");
  std::size_t cell = im.AllocCells(1, CellKind::kU64);
  std::string key(name);
  im.metrics.emplace(key, MetricInfo{MetricType::kCounter, cell, 1, nullptr});
  im.counters.push_back(Counter(cell));
  im.counter_handles.emplace(key, &im.counters.back());
  return im.counters.back();
}

Gauge& Registry::GetGauge(std::string_view name) {
  Impl& im = impl();
  MutexLock lock(im.mu);
  auto it = im.metrics.find(name);
  if (it != im.metrics.end()) {
    WMLP_CHECK_MSG(it->second.type == MetricType::kGauge,
                   "telemetry: metric re-registered with a different type");
    return *im.gauge_handles.find(name)->second;
  }
  WMLP_CHECK_MSG(!name.empty(), "telemetry: empty metric name");
  std::size_t cell = im.AllocCells(1, CellKind::kF64);
  std::string key(name);
  im.metrics.emplace(key, MetricInfo{MetricType::kGauge, cell, 1, nullptr});
  im.gauges.push_back(Gauge(cell));
  im.gauge_handles.emplace(key, &im.gauges.back());
  return im.gauges.back();
}

Histogram& Registry::GetHistogram(std::string_view name,
                                  const HistogramLayout& layout) {
  Impl& im = impl();
  MutexLock lock(im.mu);
  auto it = im.metrics.find(name);
  if (it != im.metrics.end()) {
    WMLP_CHECK_MSG(it->second.type == MetricType::kHistogram &&
                       SameLayout(*it->second.layout, layout),
                   "telemetry: histogram re-registered with a different "
                   "type or layout");
    return *im.histogram_handles.find(name)->second;
  }
  WMLP_CHECK_MSG(!name.empty(), "telemetry: empty metric name");
  if (!layout.pow2) {
    WMLP_CHECK_MSG(!layout.bounds.empty(),
                   "telemetry: explicit histogram layout needs bounds");
    for (std::size_t i = 0; i < layout.bounds.size(); ++i) {
      WMLP_CHECK_MSG(std::isfinite(layout.bounds[i]),
                     "telemetry: histogram bound not finite");
      WMLP_CHECK_MSG(i == 0 || layout.bounds[i - 1] < layout.bounds[i],
                     "telemetry: histogram bounds not strictly increasing");
    }
  }
  im.layouts.push_back(layout);
  const HistogramLayout* stored = &im.layouts.back();
  // Cells: [sum (f64), bucket 0.., bucket n-1 (u64)].
  std::size_t cells = 1 + stored->num_buckets();
  std::size_t base = im.AllocCells(cells, CellKind::kF64);
  std::string key(name);
  im.metrics.emplace(key,
                     MetricInfo{MetricType::kHistogram, base, cells, stored});
  im.histograms.push_back(Histogram(base, stored));
  im.histogram_handles.emplace(key, &im.histograms.back());
  return im.histograms.back();
}

void Histogram::Observe(double value) {
  if (std::isnan(value)) return;  // NaN has no bucket; dropping beats lying
  const HistogramLayout& layout = *layout_;
  std::size_t bucket;
  if (layout.pow2) {
    if (value < 2.0) {
      bucket = 0;
    } else if (value >= 0x1p63) {
      bucket = 63;
    } else {
      bucket = static_cast<std::size_t>(
          63 - std::countl_zero(static_cast<uint64_t>(value)));
    }
  } else {
    bucket = static_cast<std::size_t>(
        std::lower_bound(layout.bounds.begin(), layout.bounds.end(), value) -
        layout.bounds.begin());
  }
  detail::Shard& shard = detail::LocalShard();
  shard.AddF64(base_cell_, value);
  shard.AddU64(base_cell_ + 1 + bucket, 1);
}

std::shared_ptr<detail::Shard> Registry::RegisterShardForCurrentThread() {
  Impl& im = impl();
  auto shard = std::make_shared<detail::Shard>();
  MutexLock lock(im.mu);
  im.live_shards.push_back(shard);
  return shard;
}

void Registry::RetireShard(const std::shared_ptr<detail::Shard>& shard) {
  Impl& im = impl();
  MutexLock lock(im.mu);
  for (std::size_t c = 0; c < im.next_cell; ++c) {
    uint64_t raw = shard->cells[c].load(std::memory_order_relaxed);
    if (im.cell_kinds[c] == CellKind::kF64) {
      im.retired_f64[c] += std::bit_cast<double>(raw);
    } else {
      im.retired_u64[c] += raw;
    }
  }
  im.live_shards.erase(
      std::remove(im.live_shards.begin(), im.live_shards.end(), shard),
      im.live_shards.end());
}

std::vector<MetricSnapshot> Registry::Collect() const {
  Impl& im = impl();
  MutexLock lock(im.mu);
  // Merge per cell: retired accumulator + every live shard.
  std::vector<uint64_t> merged_u64(im.next_cell, 0);
  std::vector<double> merged_f64(im.next_cell, 0.0);
  for (std::size_t c = 0; c < im.next_cell; ++c) {
    if (im.cell_kinds[c] == CellKind::kF64) {
      merged_f64[c] = im.retired_f64[c];
    } else {
      merged_u64[c] = im.retired_u64[c];
    }
  }
  for (const auto& shard : im.live_shards) {
    for (std::size_t c = 0; c < im.next_cell; ++c) {
      uint64_t raw = shard->cells[c].load(std::memory_order_relaxed);
      if (im.cell_kinds[c] == CellKind::kF64) {
        merged_f64[c] += std::bit_cast<double>(raw);
      } else {
        merged_u64[c] += raw;
      }
    }
  }
  std::vector<MetricSnapshot> out;
  out.reserve(im.metrics.size());
  for (const auto& [name, info] : im.metrics) {
    MetricSnapshot snap;
    snap.name = name;
    snap.type = info.type;
    switch (info.type) {
      case MetricType::kCounter:
        snap.counter_value = merged_u64[info.base_cell];
        break;
      case MetricType::kGauge:
        snap.gauge_value = merged_f64[info.base_cell];
        break;
      case MetricType::kHistogram: {
        snap.hist_sum = merged_f64[info.base_cell];
        snap.pow2 = info.layout->pow2;
        snap.bounds = info.layout->bounds;
        std::size_t buckets = info.layout->num_buckets();
        snap.bucket_counts.resize(buckets);
        for (std::size_t b = 0; b < buckets; ++b) {
          snap.bucket_counts[b] = merged_u64[info.base_cell + 1 + b];
          snap.hist_count += snap.bucket_counts[b];
        }
        break;
      }
    }
    out.push_back(std::move(snap));
  }
  return out;
}

void Registry::ResetValuesForTest() {
  Impl& im = impl();
  MutexLock lock(im.mu);
  im.retired_u64.fill(0);
  im.retired_f64.fill(0.0);
  for (const auto& shard : im.live_shards) {
    for (std::size_t c = 0; c < im.next_cell; ++c) {
      shard->cells[c].store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace wmlp::telemetry
