#include "trace/instance.h"

#include <algorithm>
#include <sstream>

#include "util/check.h"

namespace wmlp {

Instance Instance::Uniform(int32_t num_pages, int32_t cache_size, Cost w) {
  std::vector<std::vector<Cost>> weights(
      static_cast<size_t>(num_pages), std::vector<Cost>{w});
  return Instance(num_pages, cache_size, 1, std::move(weights));
}

namespace {

std::vector<Cost> Flatten(int32_t num_pages, int32_t num_levels,
                          const std::vector<std::vector<Cost>>& rows) {
  WMLP_CHECK(num_pages >= 1);
  WMLP_CHECK(num_levels >= 1);
  WMLP_CHECK_MSG(static_cast<int32_t>(rows.size()) == num_pages,
                 "one weight row per page");
  std::vector<Cost> flat;
  flat.reserve(static_cast<size_t>(num_pages) *
               static_cast<size_t>(num_levels));
  for (const auto& row : rows) {
    WMLP_CHECK_MSG(static_cast<int32_t>(row.size()) == num_levels,
                   "one weight per level");
    flat.insert(flat.end(), row.begin(), row.end());
  }
  return flat;
}

}  // namespace

Instance::Instance(int32_t num_pages, int32_t cache_size, int32_t num_levels,
                   std::vector<std::vector<Cost>> weights)
    : Instance(Flat{}, num_pages, cache_size, num_levels,
               Flatten(num_pages, num_levels, weights)) {}

Instance::Instance(Flat, int32_t num_pages, int32_t cache_size,
                   int32_t num_levels, std::vector<Cost> weights)
    : num_pages_(num_pages),
      cache_size_(cache_size),
      num_levels_(num_levels),
      weights_(std::move(weights)) {
  WMLP_CHECK(num_pages >= 1);
  WMLP_CHECK(cache_size >= 1);
  WMLP_CHECK(num_levels >= 1);
  WMLP_CHECK(weights_.size() == static_cast<size_t>(num_pages) *
                                    static_cast<size_t>(num_levels));
  const size_t ell = static_cast<size_t>(num_levels);
  for (size_t row = 0; row < weights_.size(); row += ell) {
    for (size_t i = 0; i < ell; ++i) {
      WMLP_CHECK_MSG(weights_[row + i] >= 1.0, "weights must be >= 1");
      if (i > 0) {
        WMLP_CHECK_MSG(weights_[row + i] <= weights_[row + i - 1],
                       "weights must be non-increasing in level");
      }
    }
  }
  max_weight_ = *std::max_element(weights_.begin(), weights_.end());
  min_weight_ = *std::min_element(weights_.begin(), weights_.end());
}

Instance Instance::Select(std::span<const PageId> pages,
                          int32_t cache_size) const {
  const size_t ell = static_cast<size_t>(num_levels_);
  std::vector<Cost> rows(pages.size() * ell);
  Cost* out = rows.data();
  for (const PageId p : pages) {
    WMLP_CHECK_MSG(valid_page(p), "selected page " << p << " out of range");
    out = std::copy_n(weights_.data() + static_cast<size_t>(p) * ell, ell,
                      out);
  }
  return Instance(Flat{}, static_cast<int32_t>(pages.size()), cache_size,
                  num_levels_, std::move(rows));
}

bool Instance::levels_two_separated() const {
  for (PageId p = 0; p < num_pages_; ++p) {
    for (Level i = 1; i < num_levels_; ++i) {
      if (weight(p, i) < 2.0 * weight(p, i + 1)) return false;
    }
  }
  return true;
}

Instance::MergedLevels Instance::MergeLevels() const {
  // Per page, greedily keep a level only if its weight is >= 2x the next kept
  // level's weight; otherwise merge it into the cheaper kept level below
  // (serving a request at the merged-away level by the cheaper copy is valid
  // since cheaper copies live at *lower* levels... note: merging must map a
  // level to a kept level that can serve it, i.e. a kept level j <= i with
  // weight within 2x, so we scan from level 1 downward keeping a level when
  // its weight drops below half of the last kept weight).
  //
  // Concretely: keep level 1. Keep level i > 1 iff w(p,i) <= w(p,last)/2.
  // Every dropped level i maps to the last kept level j < i; since
  // w(p,j) < 2*w(p,i), serving (p,i) with copy (p,j) costs < 2x. Kept weights
  // are 2-separated by construction.
  //
  // All pages must end up with the same number of levels (the Instance is
  // rectangular), so we pad each page's kept list to the maximum length by
  // appending copies of its last kept weight divided by powers of 2, clamped
  // at >= 1... padding with duplicate weights would violate 2-separation, so
  // instead we pad with the minimum of (last/2^j, ...) but never below 1 and
  // only if needed; a padded level is never the target of level_map so it is
  // only reachable if an algorithm chooses it voluntarily (still sound: its
  // weight is <= the last kept weight).
  std::vector<std::vector<Cost>> kept(static_cast<size_t>(num_pages_));
  std::vector<std::vector<Level>> level_map(static_cast<size_t>(num_pages_));
  size_t max_kept = 1;
  for (PageId p = 0; p < num_pages_; ++p) {
    auto& kw = kept[static_cast<size_t>(p)];
    auto& lm = level_map[static_cast<size_t>(p)];
    lm.resize(static_cast<size_t>(num_levels_));
    kw.push_back(weight(p, 1));
    lm[0] = 1;
    for (Level i = 2; i <= num_levels_; ++i) {
      if (weight(p, i) <= kw.back() / 2.0) {
        kw.push_back(weight(p, i));
      }
      lm[static_cast<size_t>(i - 1)] = static_cast<Level>(kw.size());
    }
    max_kept = std::max(max_kept, kw.size());
  }
  for (auto& kw : kept) {
    while (kw.size() < max_kept) {
      kw.push_back(std::max(1.0, kw.back() / 2.0));
    }
    // Clamp monotonicity after padding floor at 1.
    for (size_t i = 1; i < kw.size(); ++i) kw[i] = std::min(kw[i], kw[i - 1]);
  }
  Instance merged(num_pages_, cache_size_, static_cast<int32_t>(max_kept),
                  std::move(kept));
  return MergedLevels{std::move(merged), std::move(level_map)};
}

std::string Instance::DebugString() const {
  std::ostringstream oss;
  oss << "Instance(n=" << num_pages_ << ", k=" << cache_size_
      << ", ell=" << num_levels_ << ", w_max=" << max_weight_
      << ", w_min=" << min_weight_ << ")";
  return oss.str();
}

}  // namespace wmlp
