// Threshold watches (FractionalPolicy::ArmWatch) for the engines that
// already list the pages each Serve moved — the reference and linear
// solvers: a watch is checked only when its page is on that list.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "trace/instance.h"

namespace wmlp {

class WatchTable {
 public:
  void Reset(int32_t num_pages) {
    level_.assign(static_cast<size_t>(num_pages), 0);
    x_.assign(static_cast<size_t>(num_pages), 0.0);
    fired_.clear();
  }

  void Arm(PageId p, Level i, double x) {
    level_[static_cast<size_t>(p)] = i;
    x_[static_cast<size_t>(p)] = x;
  }
  void Disarm(PageId p) { level_[static_cast<size_t>(p)] = 0; }
  bool Get(PageId p, Level* i, double* x) const {
    const Level level = level_[static_cast<size_t>(p)];
    if (level == 0) return false;
    if (i != nullptr) *i = level;
    if (x != nullptr) *x = x_[static_cast<size_t>(p)];
    return true;
  }

  // Start of a Serve of `requested`: the last Serve's firings are
  // consumed and the served page's watch is cleared.
  void BeginServe(PageId requested) {
    fired_.clear();
    Disarm(requested);
  }
  // End of a Serve: fires the watches of the moved pages whose value
  // `u(p, i)` now exceeds the threshold, reported in page order.
  template <typename UFn>
  void Check(std::span<const PageId> moved, UFn&& u) {
    for (const PageId p : moved) {
      const Level level = level_[static_cast<size_t>(p)];
      if (level != 0 && u(p, level) > x_[static_cast<size_t>(p)]) {
        level_[static_cast<size_t>(p)] = 0;
        fired_.push_back(p);
      }
    }
    std::sort(fired_.begin(), fired_.end());
  }
  std::span<const PageId> fired() const { return fired_; }

 private:
  std::vector<Level> level_;  // 0 = no watch
  std::vector<double> x_;
  std::vector<PageId> fired_;
};

}  // namespace wmlp
