// Lemma 4.5 discretization: presents an inner fractional policy's solution
// snapped to integer multiples of delta = 1/(4k), rounding u *up* (toward
// eviction) so feasibility is preserved:
//   - capacity: u only grows, so sum u(p, ell) >= n - k still holds;
//   - monotonicity: ceil-to-grid is monotone, so u(p, i-1) >= u(p, i);
//   - service: u(p_t, i_t) = 0 stays 0.
// The rounding analysis needs the granularity (it charges reset probability
// against a minimum fractional movement of delta); the <= 2x cost claim is
// validated empirically by the E10 ablation.
//
// The wrapper does no per-request pass over the pages the inner solver
// moved:
//   - U snaps the inner value on read;
//   - a watch "snapped u(p, i) > y" is the raw watch u(p, i) > x with
//     x = (floor(y / delta + 1e-9) + 1e-9) delta, armed on the inner
//     solver;
//   - class-suffix masses are the inner ones widened by the snap error:
//     each present page's term moves by less than delta;
//   - the snapped LP cost is charged per (page, level) rise phase. Between
//     two requests of p the inner u(p, i) only rises, so the phase's cost
//     is w(p, i) times the snapped rise from its start to its end. A phase
//     closes when p is next requested (with that request's own snapped
//     rise, if any); open phases are summed when lp_cost() is read.
#pragma once

#include <vector>

#include "core/fractional.h"

namespace wmlp {

class DiscretizedFractional final : public FractionalPolicy {
 public:
  // delta = 0 selects the paper's 1/(4k).
  DiscretizedFractional(FractionalPolicyPtr inner, double delta = 0.0);

  void Attach(const Instance& instance) override;
  void Serve(Time t, const Request& r) override;
  double U(PageId p, Level i) const override { return Snap(inner_->U(p, i)); }
  void PrefetchPage(PageId p) const override { inner_->PrefetchPage(p); }
  // O(pages requested so far * ell): sums the open rise phases.
  Cost lp_cost() const override;
  std::string name() const override;

  void ArmWatch(PageId p, Level i, double x) override;
  void DisarmWatch(PageId p) override { inner_->DisarmWatch(p); }
  std::span<const PageId> fired() const override { return inner_->fired(); }
  // Reports the inner solver's raw threshold.
  bool watch(PageId p, Level* i, double* x) const override {
    return inner_->watch(p, i, x);
  }
  void ClassSuffixMass(const Instance& instance, std::span<double> lo,
                       std::span<double> hi) const override;
  int64_t present_pages(const Instance& instance) const override {
    return inner_->present_pages(instance);
  }

  double delta() const { return delta_; }

 private:
  double Snap(double u) const;
  size_t Idx(PageId p, Level i) const {
    return static_cast<size_t>(p) *
               static_cast<size_t>(instance_->num_levels()) +
           static_cast<size_t>(i - 1);
  }

  FractionalPolicyPtr inner_;
  double requested_delta_;
  double delta_ = 0.0;
  const Instance* instance_ = nullptr;
  // Rise phases: the snapped u at each requested page's last request,
  // flattened [p * ell + (i-1)], and the pages with an open phase.
  std::vector<double> phase_start_;
  std::vector<uint8_t> phase_open_;
  std::vector<PageId> phase_pages_;
  Cost closed_cost_ = 0.0;
};

}  // namespace wmlp
