// Problem instance: page universe, cache size, levels, and eviction weights.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "trace/request.h"

namespace wmlp {

// An instance of weighted multi-level paging:
//   - n pages, ids 0..n-1
//   - cache of size k (counts copies; each page contributes at most one copy)
//   - ell levels, 1..ell; eviction weight w(p, i) non-increasing in i and
//     >= 1 (the paper's normalization).
class Instance {
 public:
  // Uniform-weight convenience: every copy has weight `w` (requires ell == 1
  // or explicitly equal weights; used for unweighted paging).
  static Instance Uniform(int32_t num_pages, int32_t cache_size, Cost w = 1.0);

  // weights[p][i-1] = w(p, i). Validates monotonicity and w >= 1.
  Instance(int32_t num_pages, int32_t cache_size, int32_t num_levels,
           std::vector<std::vector<Cost>> weights);

  // A copy with every weight w replaced by f(w), written in one pass into
  // one flat array and validated like the constructor's input: f must keep
  // weights >= 1 and non-increasing in the level.
  template <typename F>
  Instance MapWeights(F&& f) const {
    std::vector<Cost> mapped(weights_.size());
    for (size_t j = 0; j < mapped.size(); ++j) mapped[j] = f(weights_[j]);
    return Instance(Flat{}, num_pages_, cache_size_, num_levels_,
                    std::move(mapped));
  }

  // The sub-instance of `pages` with `cache_size` slots: page j of the
  // result carries pages[j]'s weight row, copied in order into one flat
  // array and validated like the constructor's input. Every id must be a
  // valid page, the list nonempty and cache_size >= 1 (checked).
  Instance Select(std::span<const PageId> pages, int32_t cache_size) const;

  int32_t num_pages() const { return num_pages_; }
  int32_t cache_size() const { return cache_size_; }
  int32_t num_levels() const { return num_levels_; }

  Cost weight(PageId p, Level i) const {
    return weights_[static_cast<size_t>(p) * static_cast<size_t>(num_levels_) +
                    static_cast<size_t>(i - 1)];
  }

  Cost max_weight() const { return max_weight_; }
  Cost min_weight() const { return min_weight_; }

  bool valid_page(PageId p) const { return p >= 0 && p < num_pages_; }
  bool valid_level(Level i) const { return i >= 1 && i <= num_levels_; }

  // True if w(p, i) >= 2 * w(p, i+1) for all p, i (the paper's WLOG
  // assumption in Section 4; algorithms that need it can call
  // MergeLevels() first).
  bool levels_two_separated() const;

  // Returns an instance whose levels are 2-separated by merging adjacent
  // levels per page (Section 4 preprocessing; loses a factor <= 2), together
  // with the per-page map from original level to merged level:
  // level_map[p][i-1] = merged level serving original level i.
  struct MergedLevels;
  MergedLevels MergeLevels() const;

  std::string DebugString() const;

  friend bool operator==(const Instance&, const Instance&) = default;

 private:
  // Takes weights already flattened [p * ell + (i-1)] and validates them.
  struct Flat {};
  Instance(Flat, int32_t num_pages, int32_t cache_size, int32_t num_levels,
           std::vector<Cost> weights);

  int32_t num_pages_;
  int32_t cache_size_;
  int32_t num_levels_;
  std::vector<Cost> weights_;  // flattened [p * ell + (i-1)]
  Cost max_weight_ = 1.0;
  Cost min_weight_ = 1.0;
};

struct Instance::MergedLevels {
  Instance instance;
  std::vector<std::vector<Level>> level_map;
};

// A trace is an instance plus its request sequence.
struct Trace {
  Instance instance;
  std::vector<Request> requests;

  Time length() const { return static_cast<Time>(requests.size()); }
};

}  // namespace wmlp
