// An alternative fractional engine: linear water-filling.
//
// Like FractionalMlp but with the Landlord-style uniform rate
// du/ds = 1/w(q, i_q) (no (u + eta) multiplicative factor). Fractionally
// this is the relaxation of the deterministic O(k) algorithm, so its
// fractional competitive ratio is Theta(k), not O(log k) — but it is a
// perfectly valid input to the distribution-free rounding, which the
// paper emphasizes is "independent of the way the fractional solution is
// generated" (Section 4.3). Pairing the same rounding with both engines
// exercises exactly that modularity claim (bench_e13). The linear
// dynamics integrate in closed form without exponentials, but each segment
// scans all n pages, so this engine is not faster than the
// output-sensitive FractionalMlp (E13 measures both).
#pragma once

#include "core/fractional.h"
#include "core/watch_table.h"

namespace wmlp {

class FractionalLinear final : public FractionalPolicy {
 public:
  FractionalLinear() = default;

  void Attach(const Instance& instance) override;
  void Serve(Time t, const Request& r) override;
  double U(PageId p, Level i) const override;
  Cost lp_cost() const override { return lp_cost_; }
  std::string name() const override { return "fractional-linear"; }

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

 private:
  double& MutableU(PageId p, Level i);

  const Instance* instance_ = nullptr;
  std::vector<double> u_;
  std::vector<PageId> moved_;  // pages whose u changed in the last Serve
  WatchTable watches_;
  Cost lp_cost_ = 0.0;
};

}  // namespace wmlp
