#include "core/discretize.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace wmlp {

DiscretizedFractional::DiscretizedFractional(FractionalPolicyPtr inner,
                                             double delta)
    : inner_(std::move(inner)), requested_delta_(delta) {
  WMLP_CHECK(inner_ != nullptr);
  WMLP_CHECK(delta >= 0.0 && delta <= 1.0);
}

void DiscretizedFractional::Attach(const Instance& instance) {
  instance_ = &instance;
  delta_ = requested_delta_ > 0.0
               ? requested_delta_
               : 1.0 / (4.0 * static_cast<double>(instance.cache_size()));
  inner_->Attach(instance);
  phase_start_.assign(static_cast<size_t>(instance.num_pages()) *
                          static_cast<size_t>(instance.num_levels()),
                      1.0);
  phase_open_.assign(static_cast<size_t>(instance.num_pages()), 0);
  phase_pages_.clear();
  closed_cost_ = 0.0;
}

double DiscretizedFractional::Snap(double u) const {
  // Round up to the grid; exact grid points (within fp noise) stay put.
  const double cells = std::ceil(u / delta_ - 1e-9);
  return std::min(1.0, cells * delta_);
}

void DiscretizedFractional::Serve(Time t, const Request& r) {
  const int32_t ell = instance_->num_levels();
  const PageId p = r.page;
  // Close p's phase at its pre-request values, serve, then charge the
  // request's own snapped rises (a level snapped up to its cap) and open
  // the next phase at the served values. A page never requested has no
  // phase: its u is 1 everywhere, which phase_start_ already holds.
  if (phase_open_[static_cast<size_t>(p)] != 0) {
    for (Level i = 1; i <= ell; ++i) {
      const double before = U(p, i);
      closed_cost_ +=
          instance_->weight(p, i) * (before - phase_start_[Idx(p, i)]);
      phase_start_[Idx(p, i)] = before;
    }
  }
  inner_->Serve(t, r);
  for (Level i = 1; i <= ell; ++i) {
    const double after = U(p, i);
    const double before = phase_start_[Idx(p, i)];
    if (after > before) {
      closed_cost_ += instance_->weight(p, i) * (after - before);
    }
    phase_start_[Idx(p, i)] = after;
  }
  if (phase_open_[static_cast<size_t>(p)] == 0) {
    phase_open_[static_cast<size_t>(p)] = 1;
    phase_pages_.push_back(p);
  }
}

Cost DiscretizedFractional::lp_cost() const {
  Cost cost = closed_cost_;
  for (const PageId p : phase_pages_) {
    for (Level i = 1; i <= instance_->num_levels(); ++i) {
      cost += instance_->weight(p, i) * (U(p, i) - phase_start_[Idx(p, i)]);
    }
  }
  return cost;
}

void DiscretizedFractional::ArmWatch(PageId p, Level i, double x) {
  // Snap(u) = min(1, m delta) with m = ceil(u / delta - 1e-9). For x < 1,
  // Snap(u) > x iff m > x / delta iff u > (floor(x / delta) + 1e-9) delta;
  // a snapped value never exceeds 1, so x >= 1 can never fire. The floor
  // takes the grid's own 1e-9-cell tolerance, so a threshold that is a
  // grid value up to fp rounding (the rounding arms at the current value
  // when its interval is empty) waits for the next cell, as the exact
  // comparison would.
  if (x >= 1.0) {
    inner_->DisarmWatch(p);
    return;
  }
  inner_->ArmWatch(p, i, (std::floor(x / delta_ + 1e-9) + 1e-9) * delta_);
}

void DiscretizedFractional::ClassSuffixMass(const Instance& instance,
                                            std::span<double> lo,
                                            std::span<double> hi) const {
  inner_->ClassSuffixMass(instance, lo, hi);
  // Each page's suffix term is 1 - u(p, j), and Snap(u) - u lies in
  // [-1e-9 delta, delta); only present pages have u < 1. The absolute
  // 1e-9 pads both ends against fp drift in the inner aggregates so a
  // decision that close to an integer goes to the exact scan.
  const double pages = static_cast<double>(inner_->present_pages(instance));
  for (size_t c = 0; c < lo.size(); ++c) {
    lo[c] -= pages * delta_ * (1.0 + 1e-6) + 1e-9;
    hi[c] += pages * delta_ * 1e-6 + 1e-9;
  }
}

std::string DiscretizedFractional::name() const {
  return "discretized(" + inner_->name() + ")";
}

}  // namespace wmlp
