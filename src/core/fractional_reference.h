// Reference implementation of the Section 4.2 fractional multiplicative
// update: the direct transcription that rescans all n pages per eviction
// segment, O(n·ℓ·segments) per request. `FractionalMlp` (core/fractional.h)
// computes the identical trajectory output-sensitively with an event heap;
// this class is kept as the cross-check oracle for the randomized
// equivalence suite (tests/fractional_fast_test.cpp) and as the "old"
// column of the perf suite (bench/bench_perf_suite.cpp). Semantics and cost
// meters match FractionalMlp to fp accuracy; see that header for the
// algorithm description.
#pragma once

#include "core/fractional.h"
#include "core/watch_table.h"

namespace wmlp {

class FractionalMlpReference final : public FractionalPolicy {
 public:
  explicit FractionalMlpReference(const FractionalOptions& options = {});

  void Attach(const Instance& instance) override;
  void Serve(Time t, const Request& r) override;
  double U(PageId p, Level i) const override;
  Cost lp_cost() const override { return lp_cost_; }
  std::string name() const override { return "fractional-mlp-reference"; }

  // Watches are checked against the pages each Serve moved; class masses
  // and the present count are the base class's O(n * ell) scan.
  void ArmWatch(PageId p, Level i, double x) override {
    watches_.Arm(p, i, x);
  }
  void DisarmWatch(PageId p) override { watches_.Disarm(p); }
  std::span<const PageId> fired() const override { return watches_.fired(); }
  bool watch(PageId p, Level* i, double* x) const override {
    return watches_.Get(p, i, x);
  }

  const FracSchedule& schedule() const { return schedule_; }
  double eta() const { return eta_; }

  // Cumulative y-movement cost sum w(q, i_q) * |dy(q, i_q)| over step-2
  // evictions (the Section 4.2 analysis quantity; the LP cost above
  // additionally charges the suffix levels).
  Cost movement_cost() const { return movement_cost_; }

 private:
  // One page of the per-segment active set: deepest non-empty level i_q,
  // its current value u0, the event cap (u at the level above), and the
  // rate weight w(q, i_q).
  struct Active {
    PageId q;
    Level iq;
    double u0;
    double cap;
    double w;
  };

  double& MutableU(PageId p, Level i);

  FractionalOptions options_;
  const Instance* instance_ = nullptr;
  double eta_ = 0.0;
  std::vector<double> u_;  // flattened [p * ell + (i-1)]
  std::vector<PageId> moved_;  // pages whose u changed in the last Serve
  WatchTable watches_;
  Cost lp_cost_ = 0.0;
  Cost movement_cost_ = 0.0;
  FracSchedule schedule_;
  // Per-Serve scratch, hoisted so the hot loop allocates nothing.
  std::vector<uint8_t> changed_;
  std::vector<Active> active_;
};

}  // namespace wmlp
