// Stopping-clock root finder shared by the fractional engines.
//
// Within one eviction segment no event cap binds, so the total mass gain
// g(s) is smooth, increasing, and convex in the shared clock s, and the
// stopping clock is the root of g(s) = need. Callers pass s in
// segment-relative time — the raise since the segment started, so
// g(0) = 0 — which keeps the iterates' resolution that of the raise, not
// of an absolute clock that may be far from 0. Newton from the right
// (starting at any s_hi with g(s_hi) >= need: the segment's event
// horizon, or a closer upper bound on the root) produces a monotonically
// decreasing iterate sequence that never undershoots the root: for
// convex g the tangent lies below the curve, so every iterate keeps
// g(s) >= need and the cache constraint holds at every intermediate
// step.
//
// An iterate whose next step rounds to no movement is accepted outright:
// that can only happen once the step is below one ulp of s, which already
// certifies the same over-eviction bound (rate * ulp(s)) that a bisection
// could establish — see the in-loop comment.
//
// Newton can still stall making real steps on near-degenerate instances
// (weight ratios of ~1e12 make g so ill-conditioned that fp cancellation
// keeps the iterates creeping for 50 iterations), and fp rounding can
// push an iterate below the root. In both cases, instead of silently
// accepting the last iterate, the solver falls back to bisection: the
// bracket is valid by construction (g(0) = 0 <= need <= g(s)), and the
// upper endpoint is returned so the result still never undershoots.
#pragma once

#include <cstdint>

#include "util/check.h"

namespace wmlp {

struct StoppingClockStats {
  int32_t newton_iterations = 0;
  bool used_bisection = false;
};

// Solves g(s) = need for s in (0, s_hi], where g is increasing and convex
// with g(0) = 0 (s is segment-relative) and g(s_hi) >= need (up to
// tolerance). `g_and_rate(s, &rate)` must return g(s) and write
// g'(s) > 0 into rate. `g_hi` / `rate_hi` are the caller's
// already-computed values at s_hi. The returned
// clock s satisfies g(s) >= need - tol where tol = 1e-13 * (1 + need)
// (never undershoots), found by Newton from the right or — if 50 Newton
// iterations fail to converge — by bisection on [0, s].
template <typename GainAndRate>
double SolveStoppingClock(GainAndRate&& g_and_rate, double need, double s_hi,
                          double g_hi, double rate_hi,
                          StoppingClockStats* stats = nullptr) {
  constexpr int32_t kMaxNewton = 50;
  constexpr int32_t kMaxBisect = 200;
  const double tol = 1e-13 * (1.0 + need);

  double s = s_hi;
  double g = g_hi;
  double rate = rate_hi;
  double s_prev = s_hi;  // last iterate with g >= need (undershoot bracket)
  double g_prev = g_hi;
  int32_t it = 0;
  for (; it < kMaxNewton && g - need > tol; ++it) {
    WMLP_CHECK_MSG(rate > 0.0, "stopping clock: non-positive rate");
    const double next = s - (g - need) / rate;
    WMLP_CHECK_MSG(next > 0.0, "Newton step left the segment");
    if (next >= s) {
      // fp stagnation: mathematically next < s always holds here
      // (g - need > tol and rate > 0), so next rounding back up to s
      // means the step (g - need) / rate fell below the one-ulp
      // resolution of s. That certifies the over-eviction bound
      // g(s) - need <= rate * ulp(s) — exactly the bound a bisection of
      // [0, s] ends with when its bracket collapses to one ulp, at the
      // cost of ~50 more gain evaluations. Segments whose event horizon
      // sits almost exactly at the stopping clock land here constantly
      // (the majority of Zipf-trace segments), so accepting s instead
      // of bisecting is the difference between ~4 and ~55 evaluations
      // per solve. The iterate never undershoots (loop invariant), so
      // the cache constraint holds.
      if (stats != nullptr) stats->newton_iterations = it;
      return s;
    }
    s_prev = s;
    g_prev = g;
    s = next;
    g = g_and_rate(s, &rate);
  }
  if (stats != nullptr) stats->newton_iterations = it;
  if (g - need <= tol && g >= need - tol) return s;
  if (g < need - tol) {
    // A convex-g Newton step cannot undershoot in exact arithmetic, but fp
    // rounding can; recover on the bracket [s, s_hi] by bisection below
    // with swapped roles. Fold into the generic bracket handling.
  }

  // Bisection fallback. Establish lo with g(lo) <= need and hi with
  // g(hi) >= need - tol.
  if (stats != nullptr) stats->used_bisection = true;
  double lo = 0.0;
  double hi = s;
  double g_hi_cur = g;
  if (g < need - tol) {
    // fp undershoot: the root moved above s. The previous iterate still
    // had g >= need, so the valid bracket is the last Newton step
    // [s, s_prev] — one step wide — not the whole segment [s, s_hi].
    lo = s;
    hi = s_prev;
    g_hi_cur = g_prev;
  }
  WMLP_CHECK_MSG(g_hi_cur >= need - 1e-12 * (1.0 + need),
                 "stopping clock: bisection bracket lost the root");
  // Callers accept g(s_hi) >= need within a slightly looser tolerance than
  // tol; when g_hi falls in that gap the root is numerically at the
  // segment end.
  if (g_hi_cur < need - tol) return hi;
  for (int32_t b = 0; b < kMaxBisect; ++b) {
    const double mid = 0.5 * (lo + hi);
    if (mid <= lo || mid >= hi) break;  // interval exhausted in fp
    double mid_rate = 0.0;
    const double g_mid = g_and_rate(mid, &mid_rate);
    if (g_mid >= need - tol && g_mid - need <= tol) return mid;
    if (g_mid < need) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  // Return the upper endpoint: g(hi) >= need - tol, so the caller's cache
  // constraint is met (a vanishing over-eviction, never an undershoot).
  return hi;
}

}  // namespace wmlp
