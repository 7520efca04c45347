// Least-Recently-Used, generalized to multi-level paging (victim = LRU page;
// fetches the requested level). Cost-oblivious: the classic baseline the
// writeback-aware algorithms are measured against.
#pragma once

#include <vector>

#include "sim/policy.h"

namespace wmlp {

class LruPolicy final : public Policy {
 public:
  void Attach(const Instance& instance) override;
  void Serve(Time t, const Request& r, CacheOps& ops) override;
  std::string name() const override { return "lru"; }

 private:
  static constexpr PageId kNil = -1;
  void Unlink(PageId p);
  void Touch(PageId p);
  // Intrusive recency list over page ids, sized at Attach so serving never
  // allocates: head_ is the most recently used page, tail_ the least.
  std::vector<PageId> prev_;
  std::vector<PageId> next_;
  std::vector<bool> present_;
  PageId head_ = kNil;
  PageId tail_ = kNil;
};

}  // namespace wmlp
