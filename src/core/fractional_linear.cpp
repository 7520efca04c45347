#include "core/fractional_linear.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/core_audit.h"
#include "util/check.h"

namespace wmlp {

namespace {
constexpr double kEps = 1e-12;
}

void FractionalLinear::Attach(const Instance& instance) {
  instance_ = &instance;
  u_.assign(static_cast<size_t>(instance.num_pages()) *
                static_cast<size_t>(instance.num_levels()),
            1.0);
  moved_.clear();
  watches_.Reset(instance.num_pages());
  lp_cost_ = 0.0;
}

double FractionalLinear::U(PageId p, Level i) const {
  return u_[static_cast<size_t>(p) *
                static_cast<size_t>(instance_->num_levels()) +
            static_cast<size_t>(i - 1)];
}

double& FractionalLinear::MutableU(PageId p, Level i) {
  return u_[static_cast<size_t>(p) *
                static_cast<size_t>(instance_->num_levels()) +
            static_cast<size_t>(i - 1)];
}

void FractionalLinear::Serve(Time /*t*/, const Request& r) {
  WMLP_CHECK(instance_ != nullptr);
  const Instance& inst = *instance_;
  const int32_t n = inst.num_pages();
  const int32_t ell = inst.num_levels();
  moved_.clear();
  watches_.BeginServe(r.page);
  std::vector<bool> changed(static_cast<size_t>(n), false);
  auto mark = [&](PageId p) {
    if (!changed[static_cast<size_t>(p)]) {
      changed[static_cast<size_t>(p)] = true;
      moved_.push_back(p);
    }
  };

  // Step 1: serve the request (u only decreases; free).
  for (Level j = r.level; j <= ell; ++j) {
    double& u = MutableU(r.page, j);
    if (u > 0.0) {
      u = 0.0;
      mark(r.page);
    }
  }

  // Step 2: linear water-filling. u(q, i_q) rises at rate 1/w(q, i_q), so
  // within a segment each page's gain is s / w_q — the total gain g(s) is
  // piecewise linear and each segment solves exactly.
  const double target = static_cast<double>(n - inst.cache_size());
  while (true) {
    double total = 0.0;
    for (PageId q = 0; q < n; ++q) total += U(q, ell);
    const double need = target - total;
    if (need <= kEps) break;

    struct Active {
      PageId q;
      Level iq;
      double u0;
      double cap;
      double w;
    };
    std::vector<Active> active;
    double rate_sum = 0.0;
    for (PageId q = 0; q < n; ++q) {
      if (q == r.page) continue;
      if (U(q, ell) >= 1.0 - kEps) continue;
      Level iq = 0;
      for (Level i = ell; i >= 1; --i) {
        const double cap = i == 1 ? 1.0 : U(q, i - 1);
        if (U(q, i) < cap - kEps) {
          iq = i;
          break;
        }
        if (U(q, i) != cap) MutableU(q, i) = cap;
      }
      WMLP_CHECK_MSG(iq >= 1, "present page without a non-empty level");
      const double w = inst.weight(q, iq);
      active.push_back(
          Active{q, iq, U(q, iq), iq == 1 ? 1.0 : U(q, iq - 1), w});
      rate_sum += 1.0 / w;
    }
    WMLP_CHECK_MSG(!active.empty(), "no page available for eviction");

    // Earliest event and the exact stopping clock.
    double s_event = std::numeric_limits<double>::infinity();
    for (const Active& a : active) {
      s_event = std::min(s_event, (a.cap - a.u0) * a.w);
    }
    const double s_need = need / rate_sum;
    const double s_apply = std::min(s_event, s_need);
    WMLP_CHECK(s_apply > 0.0);

    for (const Active& a : active) {
      const double u_new = std::min(a.cap, a.u0 + s_apply / a.w);
      if (u_new <= a.u0) continue;
      mark(a.q);
      for (Level j = a.iq; j <= ell; ++j) {
        MutableU(a.q, j) = std::min(u_new, 1.0);
        lp_cost_ += inst.weight(a.q, j) * (u_new - a.u0);
      }
    }
    if (s_need <= s_event) break;
  }

  watches_.Check(moved_, [this](PageId p, Level i) { return U(p, i); });

  if constexpr (audit::kEnabled) {
    audit::AuditFractionalState(inst, *this);
    audit::AuditFractionalServed(inst, *this, r);
  }
}

}  // namespace wmlp
