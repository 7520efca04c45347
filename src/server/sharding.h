// Deterministic hash partitioning of one WMLP instance across shards.
//
// A ShardMap splits the page universe by a fixed hash of the page id and
// divides the cache capacity among the shards, producing one independent
// sub-instance per shard (dense local page ids, the page's original weight
// row, a private capacity budget). Each shard is then a complete paging
// problem of its own: the multi-level model carries over per shard
// unchanged, so any registry policy can serve a shard without knowing it
// is one slice of a larger cache. The price of the split — separately
// managed slices cannot share slack — is the "sharding penalty" measured
// by E16 (cf. online paging with heterogeneous cache slots).
//
// Everything here is a pure function of (instance, shards): no RNG, no
// platform-dependent hashing, no iteration-order dependence. That is the
// foundation of the serving layer's determinism contract (server.h).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "trace/instance.h"
#include "util/hot_path.h"

namespace wmlp {

// The shard owning page p under `shards`-way partitioning: SplitMix64 of
// the page id, reduced mod shards. Stable across platforms and runs.
int32_t ShardOfPage(PageId p, int32_t shards);

class ShardMap {
 public:
  // Partitions `instance` across `shards` shards in one hash pass and
  // builds each nonempty shard's sub-instance as one flat copy of its
  // pages' weight rows (Instance::Select). Precondition:
  // ShardabilityError(instance, shards) is empty (checked, from the same
  // pass's counts). The map copies everything it keeps, so `instance`
  // may go away once the constructor returns.
  ShardMap(const Instance& instance, int32_t shards);

  int32_t num_shards() const { return shards_; }
  int32_t num_pages() const {
    return static_cast<int32_t>(shard_of_.size());
  }

  int32_t shard_of(PageId p) const {
    return shard_of_[static_cast<size_t>(p)];
  }
  // Hints p's routing rows (shard id, dense local id) into cache ahead of
  // the drain loop's remap; pure hint, `p` must be a valid global page.
  void PrefetchLookup(PageId p) const {
    WMLP_PREFETCH_READ(shard_of_.data() + static_cast<size_t>(p));
    WMLP_PREFETCH_READ(local_id_.data() + static_cast<size_t>(p));
  }
  // Dense id of p inside its shard's sub-instance.
  PageId local_id(PageId p) const {
    return local_id_[static_cast<size_t>(p)];
  }
  // Inverse of local_id for shard s.
  PageId global_id(int32_t shard, PageId local) const {
    return pages_[static_cast<size_t>(shard)][static_cast<size_t>(local)];
  }

  // Pages owned by shard s, ascending global ids.
  const std::vector<PageId>& shard_pages(int32_t shard) const {
    return pages_[static_cast<size_t>(shard)];
  }
  int32_t shard_capacity(int32_t shard) const {
    return capacity_[static_cast<size_t>(shard)];
  }
  bool shard_empty(int32_t shard) const {
    return pages_[static_cast<size_t>(shard)].empty();
  }
  // Sub-instance of shard s. Valid only for nonempty shards.
  const Instance& shard_instance(int32_t shard) const;

 private:
  int32_t shards_;
  std::vector<int32_t> shard_of_;   // per global page
  std::vector<PageId> local_id_;    // per global page; -1 never happens
  std::vector<std::vector<PageId>> pages_;  // per shard, ascending
  std::vector<int32_t> capacity_;           // per shard; sums to k
  std::vector<std::optional<Instance>> instances_;  // per shard
};

// Empty string when (instance, shards) can be partitioned; otherwise a
// human-readable reason. Rejects shards < 1, shards > kMaxShards, and
// capacity splits that would leave a nonempty shard with zero slots
// (cache_size must be >= the number of nonempty shards).
std::string ShardabilityError(const Instance& instance, int32_t shards);

// Hard ceiling on the shard count: above this the per-shard capacity
// arithmetic still works but a "shard" stops meaning anything (and tools
// would happily spawn thousands of threads from a typo'd flag).
inline constexpr int32_t kMaxShards = 4096;

}  // namespace wmlp
