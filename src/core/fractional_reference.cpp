#include "core/fractional_reference.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/core_audit.h"
#include "core/stopping_clock.h"
#include "util/check.h"

namespace wmlp {

namespace {
constexpr double kEps = 1e-12;
}

FractionalMlpReference::FractionalMlpReference(
    const FractionalOptions& options)
    : options_(options) {
  WMLP_CHECK(options.eta >= 0.0);
}

void FractionalMlpReference::Attach(const Instance& instance) {
  instance_ = &instance;
  eta_ = options_.eta > 0.0
             ? options_.eta
             : 1.0 / static_cast<double>(instance.cache_size());
  u_.assign(static_cast<size_t>(instance.num_pages()) *
                static_cast<size_t>(instance.num_levels()),
            1.0);
  moved_.clear();
  watches_.Reset(instance.num_pages());
  lp_cost_ = 0.0;
  movement_cost_ = 0.0;
  schedule_.u.clear();
  if (options_.record_schedule) schedule_.u.push_back(u_);
  changed_.assign(static_cast<size_t>(instance.num_pages()), 0);
  active_.clear();
  active_.reserve(static_cast<size_t>(instance.num_pages()));
}

double FractionalMlpReference::U(PageId p, Level i) const {
  return u_[static_cast<size_t>(p) *
                static_cast<size_t>(instance_->num_levels()) +
            static_cast<size_t>(i - 1)];
}

double& FractionalMlpReference::MutableU(PageId p, Level i) {
  return u_[static_cast<size_t>(p) *
                static_cast<size_t>(instance_->num_levels()) +
            static_cast<size_t>(i - 1)];
}

void FractionalMlpReference::Serve(Time /*t*/, const Request& r) {
  WMLP_CHECK(instance_ != nullptr);
  const Instance& inst = *instance_;
  const int32_t n = inst.num_pages();
  const int32_t ell = inst.num_levels();
  for (PageId p : moved_) changed_[static_cast<size_t>(p)] = 0;
  moved_.clear();
  watches_.BeginServe(r.page);
  auto mark = [&](PageId p) {
    if (changed_[static_cast<size_t>(p)] == 0) {
      changed_[static_cast<size_t>(p)] = 1;
      moved_.push_back(p);
    }
  };

  // ---- Step 1: serve the request (u of p_t only decreases; no cost). ----
  for (Level j = r.level; j <= ell; ++j) {
    double& u = MutableU(r.page, j);
    if (u > 0.0) {
      u = 0.0;
      mark(r.page);
    }
  }

  // ---- Step 2: evict continuously until the cache fits. -----------------
  const double target = static_cast<double>(n - inst.cache_size());
  while (true) {
    double total = 0.0;
    for (PageId q = 0; q < n; ++q) total += U(q, ell);
    double need = target - total;
    if (need <= kEps) break;

    // Active pages: q != p_t with fractional presence. For each, locate the
    // deepest non-empty level i_q and its event horizon (u reaching the cap
    // u(q, i_q - 1), where y(q, i_q) is exhausted).
    active_.clear();
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
        // Snap numerically-equal levels so the scan stays consistent. The
        // snap is still movement and must be charged: on heavy pages even
        // a kEps-sized rise carries O(w * kEps) cost, and the meters must
        // agree with a solver that reaches the cap via a charged advance.
        if (U(q, i) != cap) {
          const double d = cap - U(q, i);
          if (d > 0.0) {
            lp_cost_ += inst.weight(q, i) * d;
            movement_cost_ += inst.weight(q, i) * d;
          }
          MutableU(q, i) = cap;
          mark(q);
        }
      }
      if (iq == 0) {
        // Every level sits within kEps of its cap, so the whole row chains
        // to 1.0: the page is numerically absent even though the presence
        // test above (taken before snapping) said otherwise. Snap the row.
        for (Level i = 1; i <= ell; ++i) {
          // Bitwise identity on purpose: 1.0 is the exact snapped value
          // written below, not an approximate target.
          if (U(q, i) != 1.0) {  // wmlp-lint-allow(float-eq)
            const double d = 1.0 - U(q, i);
            if (d > 0.0) {
              lp_cost_ += inst.weight(q, i) * d;
              movement_cost_ += inst.weight(q, i) * d;
            }
            MutableU(q, i) = 1.0;
            mark(q);
          }
        }
        continue;
      }
      active_.push_back(Active{q, iq, U(q, iq),
                               iq == 1 ? 1.0 : U(q, iq - 1),
                               inst.weight(q, iq)});
    }
    WMLP_CHECK_MSG(!active_.empty(), "no page available for eviction");

    // Earliest event: some u(q, i_q) reaches its cap.
    double s_event = std::numeric_limits<double>::infinity();
    for (const Active& a : active_) {
      const double s = a.w * std::log((a.cap + eta_) / (a.u0 + eta_));
      s_event = std::min(s_event, s);
    }
    WMLP_CHECK(s_event > 0.0);

    // Within the segment no caps bind, so the total gain
    //   g(s) = sum_a (a.u0 + eta) e^{s / a.w} - (a.u0 + eta)
    // is smooth, increasing, and convex, and its derivative comes free with
    // each evaluation.
    auto gain_and_rate = [&](double s, double* rate) {
      double g = 0.0;
      double dg = 0.0;
      for (const Active& a : active_) {
        // expm1 avoids the e^{s/w} - 1 cancellation for s << w (the error
        // would be amplified by w when the gain is turned into cost).
        const double rise = (a.u0 + eta_) * std::expm1(s / a.w);
        g += rise;
        dg += (a.u0 + eta_ + rise) / a.w;
      }
      if (rate != nullptr) *rate = dg;
      return g;
    };

    double s_apply = s_event;
    bool final_segment = false;
    {
      double rate_at_event = 0.0;
      const double gain_at_event = gain_and_rate(s_event, &rate_at_event);
      if (gain_at_event >= need - kEps) {
        // The stopping clock lies inside this segment (Newton from the
        // right, with a bisection fallback for degenerate conditioning).
        s_apply = SolveStoppingClock(gain_and_rate, need, s_event,
                                     gain_at_event, rate_at_event);
        final_segment = true;
      }
    }

    // Apply the clock advance; charge the LP-objective cost
    // sum_{j >= i_q} w(q, j) * Delta u (all suffix levels rise together).
    for (const Active& a : active_) {
      const double rise = (a.u0 + eta_) * std::expm1(s_apply / a.w);
      const double u_new = std::min(a.cap, a.u0 + rise);
      if (u_new <= a.u0) continue;
      mark(a.q);
      movement_cost_ += a.w * (u_new - a.u0);
      for (Level j = a.iq; j <= ell; ++j) {
        MutableU(a.q, j) = std::min(u_new, 1.0);
        lp_cost_ += inst.weight(a.q, j) * (u_new - a.u0);
      }
    }
    if (final_segment) break;
  }

  watches_.Check(moved_, [this](PageId p, Level i) { return U(p, i); });

  if (options_.record_schedule) schedule_.u.push_back(u_);

  if constexpr (audit::kEnabled) {
    audit::AuditFractionalState(inst, *this);
    audit::AuditFractionalServed(inst, *this, r);
  }
}

}  // namespace wmlp
