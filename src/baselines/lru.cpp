#include "baselines/lru.h"

#include "baselines/serve_util.h"

namespace wmlp {

void LruPolicy::Attach(const Instance& instance) {
  const auto n = static_cast<size_t>(instance.num_pages());
  prev_.assign(n, kNil);
  next_.assign(n, kNil);
  present_.assign(n, false);
  head_ = tail_ = kNil;
}

void LruPolicy::Unlink(PageId p) {
  const auto idx = static_cast<size_t>(p);
  const PageId before = prev_[idx];
  const PageId after = next_[idx];
  (before == kNil ? head_ : next_[static_cast<size_t>(before)]) = after;
  (after == kNil ? tail_ : prev_[static_cast<size_t>(after)]) = before;
  present_[idx] = false;
}

void LruPolicy::Touch(PageId p) {
  const auto idx = static_cast<size_t>(p);
  if (present_[idx]) Unlink(p);
  prev_[idx] = kNil;
  next_[idx] = head_;
  (head_ == kNil ? tail_ : prev_[static_cast<size_t>(head_)]) = p;
  head_ = p;
  present_[idx] = true;
}

void LruPolicy::Serve(Time /*t*/, const Request& r, CacheOps& ops) {
  ServeWithVictim(
      r, ops, [this](const Request&, CacheOps&) { return tail_; },
      [this](PageId victim) { Unlink(victim); });
  Touch(r.page);
}

}  // namespace wmlp
