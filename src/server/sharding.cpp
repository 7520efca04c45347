#include "server/sharding.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"
#include "util/rng.h"

namespace wmlp {

namespace {

// Why `shards` is no shard count at all; empty when it is in range.
std::string ShardCountError(int32_t shards) {
  if (shards < 1) return "shards must be >= 1";
  if (shards > kMaxShards) {
    return "shards must be <= " + std::to_string(kMaxShards);
  }
  return "";
}

// Why pages split `counts` ways cannot share `cache_size` slots; empty
// when every nonempty shard can get one. The one count -> error rule,
// shared by ShardabilityError and ShardMap so they can never disagree.
std::string CapacityError(int32_t cache_size,
                          const std::vector<int64_t>& counts) {
  const auto nonempty = static_cast<int64_t>(
      std::count_if(counts.begin(), counts.end(),
                    [](int64_t c) { return c > 0; }));
  if (static_cast<int64_t>(cache_size) < nonempty) {
    return "cache size " + std::to_string(cache_size) +
           " cannot give each of " + std::to_string(nonempty) +
           " nonempty shards a slot";
  }
  return "";
}

// Splits cache capacity k across shards proportionally to their page
// counts (largest-remainder rounding, ties to the lower shard index), then
// guarantees every nonempty shard at least one slot by taking slots from
// the currently largest allocation. Deterministic; sums to exactly k.
std::vector<int32_t> SplitCapacity(int64_t k,
                                   const std::vector<int64_t>& counts) {
  const int64_t n = std::accumulate(counts.begin(), counts.end(),
                                    static_cast<int64_t>(0));
  const size_t shards = counts.size();
  std::vector<int32_t> capacity(shards, 0);
  if (n == 0) return capacity;

  // Largest-remainder apportionment of k by counts. k and n are int32
  // ranges, so k * counts[s] fits comfortably in int64.
  std::vector<int64_t> remainder(shards, 0);
  int64_t assigned = 0;
  for (size_t s = 0; s < shards; ++s) {
    const int64_t share = k * counts[s] / n;
    capacity[s] = static_cast<int32_t>(share);
    remainder[s] = k * counts[s] - share * n;
    assigned += share;
  }
  std::vector<size_t> order(shards);
  std::iota(order.begin(), order.end(), static_cast<size_t>(0));
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return remainder[a] > remainder[b];
  });
  for (size_t i = 0; assigned < k; ++i) {
    const size_t s = order[i % shards];
    if (counts[s] == 0) continue;  // empty shards never get capacity
    ++capacity[s];
    ++assigned;
  }

  // Min-one fix-up: a tiny nonempty shard can round to zero; it still
  // needs one slot to serve its pages at all. Feasible whenever
  // k >= #nonempty shards (checked by CapacityError).
  for (size_t s = 0; s < shards; ++s) {
    while (counts[s] > 0 && capacity[s] == 0) {
      const auto donor = static_cast<size_t>(std::distance(
          capacity.begin(),
          std::max_element(capacity.begin(), capacity.end())));
      WMLP_CHECK_MSG(capacity[donor] > 1, "capacity split infeasible");
      --capacity[donor];
      ++capacity[s];
    }
  }
  return capacity;
}

}  // namespace

int32_t ShardOfPage(PageId p, int32_t shards) {
  WMLP_DCHECK(shards >= 1);
  if (shards == 1) return 0;
  SplitMix64 hash(static_cast<uint64_t>(p));
  return static_cast<int32_t>(hash.Next() %
                              static_cast<uint64_t>(shards));
}

std::string ShardabilityError(const Instance& instance, int32_t shards) {
  std::string error = ShardCountError(shards);
  if (!error.empty()) return error;
  std::vector<int64_t> counts(static_cast<size_t>(shards), 0);
  for (PageId p = 0; p < instance.num_pages(); ++p) {
    ++counts[static_cast<size_t>(ShardOfPage(p, shards))];
  }
  return CapacityError(instance.cache_size(), counts);
}

ShardMap::ShardMap(const Instance& instance, int32_t shards)
    : shards_(shards) {
  const std::string range = ShardCountError(shards);
  WMLP_CHECK_MSG(range.empty(), "unshardable: " << range);

  // One hash pass: each page's shard, its dense local id (the running
  // count of its shard) and the per-shard page counts.
  const auto n = static_cast<size_t>(instance.num_pages());
  const auto num_shards = static_cast<size_t>(shards);
  shard_of_.resize(n);
  local_id_.resize(n);
  std::vector<int64_t> counts(num_shards, 0);
  for (size_t p = 0; p < n; ++p) {
    const int32_t s = ShardOfPage(static_cast<PageId>(p), shards);
    shard_of_[p] = s;
    local_id_[p] = static_cast<PageId>(counts[static_cast<size_t>(s)]++);
  }
  const std::string error = CapacityError(instance.cache_size(), counts);
  WMLP_CHECK_MSG(error.empty(), "unshardable: " << error);

  pages_.resize(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    pages_[s].resize(static_cast<size_t>(counts[s]));
  }
  for (size_t p = 0; p < n; ++p) {
    pages_[static_cast<size_t>(shard_of_[p])]
          [static_cast<size_t>(local_id_[p])] = static_cast<PageId>(p);
  }
  capacity_ = SplitCapacity(instance.cache_size(), counts);

  instances_.resize(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    if (pages_[s].empty()) continue;
    instances_[s].emplace(instance.Select(pages_[s], capacity_[s]));
  }
}

const Instance& ShardMap::shard_instance(int32_t shard) const {
  const auto& instance = instances_[static_cast<size_t>(shard)];
  WMLP_CHECK_MSG(instance.has_value(),
                 "shard " << shard << " owns no pages");
  return *instance;
}

}  // namespace wmlp
