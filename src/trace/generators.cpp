#include "trace/generators.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "util/check.h"
#include "util/zipf.h"

namespace wmlp {

std::vector<std::vector<Cost>> MakeWeights(int32_t num_pages,
                                           int32_t num_levels,
                                           WeightModel model, double ratio,
                                           uint64_t seed) {
  WMLP_CHECK(num_pages >= 1 && num_levels >= 1);
  WMLP_CHECK(ratio >= 1.0);
  Rng rng(seed);
  // Per-level geometric factor; >= 2 keeps the paper's separation assumption.
  const double level_factor =
      num_levels == 1 ? 1.0
                      : std::max(2.0, std::pow(ratio, 1.0 / (num_levels - 1)));
  std::vector<std::vector<Cost>> weights(static_cast<size_t>(num_pages));
  for (int32_t p = 0; p < num_pages; ++p) {
    double base = 1.0;  // weight of the cheapest level, >= 1
    switch (model) {
      case WeightModel::kUniform:
        // Single level: every page costs `ratio`. Multi level: bases are 1
        // and the spread comes from the geometric level factor alone.
        base = num_levels == 1 ? ratio : 1.0;
        break;
      case WeightModel::kGeometricLevels:
        base = 1.0;
        break;
      case WeightModel::kZipfPages:
        base = 1.0 + ratio / static_cast<double>(p + 1);
        break;
      case WeightModel::kLogUniform:
        base = std::exp(rng.NextDouble() * std::log(std::max(1.0, ratio)));
        break;
    }
    auto& row = weights[static_cast<size_t>(p)];
    row.resize(static_cast<size_t>(num_levels));
    for (int32_t i = num_levels; i >= 1; --i) {
      row[static_cast<size_t>(i - 1)] =
          base * std::pow(level_factor, static_cast<double>(num_levels - i));
    }
  }
  return weights;
}

LevelMix LevelMix::AllLowest(int32_t num_levels) {
  LevelMix m;
  m.probs.assign(static_cast<size_t>(num_levels), 0.0);
  m.probs.back() = 1.0;
  return m;
}

LevelMix LevelMix::UniformMix(int32_t num_levels) {
  LevelMix m;
  m.probs.assign(static_cast<size_t>(num_levels),
                 1.0 / static_cast<double>(num_levels));
  return m;
}

LevelMix LevelMix::ReadWrite(double write_ratio) {
  WMLP_CHECK(write_ratio >= 0.0 && write_ratio <= 1.0);
  return LevelMix{{write_ratio, 1.0 - write_ratio}};
}

LevelMix LevelMix::Geometric(int32_t num_levels, double decay,
                             bool top_heavy) {
  WMLP_CHECK(num_levels >= 1);
  WMLP_CHECK(decay > 0.0);
  LevelMix m;
  m.probs.resize(static_cast<size_t>(num_levels));
  // Each term is taken relative to the largest, decay^(rank - top), so none
  // overflows (decay^7 is inf at decay = 1e300); for decay <= 1 the largest
  // is rank 0, so the terms are decay^rank.
  const int32_t top = decay > 1.0 ? num_levels - 1 : 0;
  double total = 0.0;
  for (int32_t i = 0; i < num_levels; ++i) {
    const int32_t rank = top_heavy ? i : (num_levels - 1 - i);
    m.probs[static_cast<size_t>(i)] = std::pow(decay, rank - top);
    total += m.probs[static_cast<size_t>(i)];
  }
  for (auto& p : m.probs) p /= total;
  return m;
}

Level SampleLevel(const LevelMix& mix, Rng& rng) {
  WMLP_CHECK(!mix.probs.empty());
  const double u = rng.NextDouble();
  double acc = 0.0;
  for (size_t i = 0; i < mix.probs.size(); ++i) {
    acc += mix.probs[i];
    if (u < acc) return static_cast<Level>(i + 1);
  }
  return static_cast<Level>(mix.probs.size());
}

namespace {

void CheckMix(const Instance& inst, const LevelMix& mix) {
  WMLP_CHECK_MSG(static_cast<int32_t>(mix.probs.size()) == inst.num_levels(),
                 "level mix size must equal number of levels");
}

}  // namespace

Trace GenZipf(Instance instance, int64_t length, double alpha,
              const LevelMix& mix, uint64_t seed) {
  CheckMix(instance, mix);
  Rng rng(seed);
  ZipfSampler zipf(instance.num_pages(), alpha);
  Trace trace{std::move(instance), {}};
  trace.requests.reserve(static_cast<size_t>(length));
  for (int64_t t = 0; t < length; ++t) {
    trace.requests.push_back(Request{static_cast<PageId>(zipf.Sample(rng)),
                                     SampleLevel(mix, rng)});
  }
  return trace;
}

Trace GenUniform(Instance instance, int64_t length, const LevelMix& mix,
                 uint64_t seed) {
  return GenZipf(std::move(instance), length, 0.0, mix, seed);
}

Trace GenLoop(Instance instance, int64_t length, int32_t loop_size,
              const LevelMix& mix) {
  CheckMix(instance, mix);
  WMLP_CHECK(loop_size >= 1 && loop_size <= instance.num_pages());
  Rng rng(0xC0FFEE);  // levels only; page order is the deterministic loop
  Trace trace{std::move(instance), {}};
  trace.requests.reserve(static_cast<size_t>(length));
  for (int64_t t = 0; t < length; ++t) {
    trace.requests.push_back(Request{static_cast<PageId>(t % loop_size),
                                     SampleLevel(mix, rng)});
  }
  return trace;
}

Trace GenPhases(Instance instance, int64_t length, int32_t ws_size,
                int64_t phase_len, double alpha, const LevelMix& mix,
                uint64_t seed) {
  CheckMix(instance, mix);
  WMLP_CHECK(ws_size >= 1 && ws_size <= instance.num_pages());
  WMLP_CHECK(phase_len >= 1);
  Rng rng(seed);
  ZipfSampler zipf(ws_size, alpha);
  const int32_t n = instance.num_pages();
  std::vector<PageId> universe(static_cast<size_t>(n));
  for (int32_t p = 0; p < n; ++p) universe[static_cast<size_t>(p)] = p;
  std::vector<PageId> working_set;
  Trace trace{std::move(instance), {}};
  trace.requests.reserve(static_cast<size_t>(length));
  for (int64_t t = 0; t < length; ++t) {
    if (t % phase_len == 0) {
      // Fisher-Yates prefix shuffle: fresh working set each phase.
      for (int32_t i = 0; i < ws_size; ++i) {
        const int64_t j = rng.NextInt(i, n - 1);
        std::swap(universe[static_cast<size_t>(i)],
                  universe[static_cast<size_t>(j)]);
      }
      working_set.assign(universe.begin(), universe.begin() + ws_size);
    }
    const PageId p = working_set[static_cast<size_t>(zipf.Sample(rng))];
    trace.requests.push_back(Request{p, SampleLevel(mix, rng)});
  }
  return trace;
}

Trace GenScanMix(Instance instance, int64_t length, double alpha,
                 int32_t scan_len, double scan_prob, const LevelMix& mix,
                 uint64_t seed) {
  CheckMix(instance, mix);
  WMLP_CHECK(scan_len >= 1);
  WMLP_CHECK(scan_prob >= 0.0 && scan_prob <= 1.0);
  Rng rng(seed);
  ZipfSampler zipf(instance.num_pages(), alpha);
  const int32_t n = instance.num_pages();
  Trace trace{std::move(instance), {}};
  trace.requests.reserve(static_cast<size_t>(length));
  int64_t t = 0;
  while (t < length) {
    if (rng.NextBernoulli(scan_prob)) {
      const PageId start = static_cast<PageId>(rng.NextBounded(
          static_cast<uint64_t>(n)));
      for (int32_t i = 0; i < scan_len && t < length; ++i, ++t) {
        trace.requests.push_back(
            Request{static_cast<PageId>((start + i) % n),
                    SampleLevel(mix, rng)});
      }
    } else {
      trace.requests.push_back(Request{static_cast<PageId>(zipf.Sample(rng)),
                                       SampleLevel(mix, rng)});
      ++t;
    }
  }
  return trace;
}

Trace GenMarkov(Instance instance, int64_t length, double stay,
                int32_t window, double alpha, const LevelMix& mix,
                uint64_t seed) {
  CheckMix(instance, mix);
  WMLP_CHECK(stay >= 0.0 && stay <= 1.0);
  WMLP_CHECK(window >= 1);
  Rng rng(seed);
  ZipfSampler zipf(instance.num_pages(), alpha);
  std::deque<PageId> recent;
  Trace trace{std::move(instance), {}};
  trace.requests.reserve(static_cast<size_t>(length));
  for (int64_t t = 0; t < length; ++t) {
    PageId p;
    if (!recent.empty() && rng.NextBernoulli(stay)) {
      p = recent[static_cast<size_t>(
          rng.NextBounded(static_cast<uint64_t>(recent.size())))];
    } else {
      p = static_cast<PageId>(zipf.Sample(rng));
    }
    recent.push_back(p);
    if (static_cast<int32_t>(recent.size()) > window) recent.pop_front();
    trace.requests.push_back(Request{p, SampleLevel(mix, rng)});
  }
  return trace;
}

Trace GenWeightedAdversary(int32_t cache_size, int64_t length, double ratio,
                           uint64_t seed) {
  WMLP_CHECK(cache_size >= 1);
  WMLP_CHECK(ratio >= 1.0);
  const int32_t n = cache_size + 1;
  // Weights span [1, ratio] geometrically over the n loop pages.
  std::vector<std::vector<Cost>> weights(static_cast<size_t>(n));
  for (int32_t p = 0; p < n; ++p) {
    const double w = std::pow(
        ratio, n == 1 ? 0.0 : static_cast<double>(p) / (n - 1));
    weights[static_cast<size_t>(p)] = {std::max(1.0, w)};
  }
  Instance inst(n, cache_size, 1, std::move(weights));
  Rng rng(seed);
  Trace trace{std::move(inst), {}};
  trace.requests.reserve(static_cast<size_t>(length));
  // Expensive pages are re-requested with probability proportional to
  // weight: a cost-oblivious policy that evicts them pays dearly.
  std::vector<double> cum(static_cast<size_t>(n));
  double total = 0.0;
  for (int32_t p = 0; p < n; ++p) {
    total += trace.instance.weight(p, 1);
    cum[static_cast<size_t>(p)] = total;
  }
  for (int64_t t = 0; t < length; ++t) {
    if (t % 2 == 0) {
      // Loop pressure: cycle through all n pages.
      trace.requests.push_back(
          Request{static_cast<PageId>((t / 2) % n), 1});
    } else {
      const double u = rng.NextDouble() * total;
      const auto it = std::lower_bound(cum.begin(), cum.end(), u);
      trace.requests.push_back(Request{
          static_cast<PageId>(it - cum.begin()), 1});
    }
  }
  return trace;
}

Trace GenWriteBursts(Instance instance, int64_t length, double alpha,
                     double write_start, double burst_stay, uint64_t seed) {
  WMLP_CHECK_MSG(instance.num_levels() == 2,
                 "write bursts are an RW (ell = 2) workload");
  WMLP_CHECK(write_start >= 0.0 && write_start <= 1.0);
  WMLP_CHECK(burst_stay >= 0.0 && burst_stay <= 1.0);
  Rng rng(seed);
  ZipfSampler zipf(instance.num_pages(), alpha);
  Trace trace{std::move(instance), {}};
  trace.requests.reserve(static_cast<size_t>(length));
  bool in_burst = false;
  for (int64_t t = 0; t < length; ++t) {
    in_burst = in_burst ? rng.NextBernoulli(burst_stay)
                        : rng.NextBernoulli(write_start);
    trace.requests.push_back(Request{static_cast<PageId>(zipf.Sample(rng)),
                                     in_burst ? Level{1} : Level{2}});
  }
  return trace;
}

Trace GenMultiGranularity(int32_t num_chunks, int32_t sectors_per_chunk,
                          int32_t cache_size, int64_t length,
                          double chunk_fetch_prob, double alpha,
                          uint64_t seed) {
  WMLP_CHECK(num_chunks >= 1 && sectors_per_chunk >= 1);
  const int32_t n = num_chunks * sectors_per_chunk;
  // Level 1 = full chunk copy (expensive, cost ~ sectors_per_chunk);
  // level 2 = single sector copy (cost 1). Both serve sector reads; only the
  // chunk copy serves chunk-granularity (level-1) requests.
  const double chunk_w =
      std::max(2.0, static_cast<double>(sectors_per_chunk));
  std::vector<std::vector<Cost>> weights(
      static_cast<size_t>(n), std::vector<Cost>{chunk_w, 1.0});
  Instance inst(n, cache_size, 2, std::move(weights));
  Rng rng(seed);
  ZipfSampler chunk_zipf(num_chunks, alpha);
  Trace trace{std::move(inst), {}};
  trace.requests.reserve(static_cast<size_t>(length));
  for (int64_t t = 0; t < length; ++t) {
    const int32_t chunk = static_cast<int32_t>(chunk_zipf.Sample(rng));
    const int32_t sector = static_cast<int32_t>(
        rng.NextBounded(static_cast<uint64_t>(sectors_per_chunk)));
    const PageId p = chunk * sectors_per_chunk + sector;
    const Level lvl = rng.NextBernoulli(chunk_fetch_prob) ? 1 : 2;
    trace.requests.push_back(Request{p, lvl});
  }
  return trace;
}

}  // namespace wmlp
