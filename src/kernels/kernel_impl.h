// Shared lane-level kernel templates.
//
// Everything here is a template over one simd.h traits class; the
// src/kernels/ .cpp files instantiate each kernel against VecNative (the
// *BatchLarge body) and VecScalar (the *BatchScalar reference), and
// kernels.h instantiates the exp pipeline against the single-lane
// VecLane1 for the inline small-batch dispatch. Because every
// instantiation runs the same sequence of IEEE lane operations, the
// bitwise SIMD == scalar contract holds by construction — the lockstep
// tests (tests/kernel_test.cpp) then prove it holds in the compiled
// binary too (no FMA contraction, no reassociation crept in).
//
// Tail discipline: array kernels process full 4-lane blocks and route
// the final partial block through a stack pad filled with neutral
// elements (mass = 0, lp = 0, e1 = 0, d = 0, w = 1), running the
// identical 4-lane code. Neutral lanes contribute exact ±0.0 to every
// accumulator, so results for length n are independent of the pad — and
// identical between backends for every tail length.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "util/simd.h"

namespace wmlp::kernels::detail {

// exp/expm1 range reduction x = k ln2 + r, |r| <= ln2/2, with the
// Cody–Waite two-term ln2 split (exact k * ln2_hi for |k| < 2^31).
inline constexpr double kInvLn2 = 1.44269504088896338700e+00;
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
// (x + magic) - magic rounds to nearest-even integer for |x| <= 2^51:
// the backend-independent replacement for nearbyint/cvtpd (§13 — one
// rounding definition, every backend).
inline constexpr double kRoundMagic = 6755399441055744.0;  // 1.5 * 2^52
// Clamp bounds: exp(-708) is the smallest normal scale the 2^k exponent
// construction supports, and expm1(x) for x < -708 rounds to -1.0
// exactly regardless; 709 keeps exp finite.
inline constexpr double kExpLo = -708.0;
inline constexpr double kExpHi = 709.0;
// Below this |x| the reduction has k == 0 and r == x, so the polynomial
// form x + x^2 P(x) is returned directly — no (1 + q) - 1 round trip,
// which preserves tiny results (denormal x comes back exactly: x^2
// underflows to zero). 0.34 < ln2/2 guarantees k == 0.
inline constexpr double kSmallThresh = 0.34;

// P(r) = sum_{j=0}^{11} r^j / (j+2)!  so that
//   exp(r)   = 1 + r + r^2 P(r)
//   expm1(r) =     r + r^2 P(r)
// Truncation at |r| = ln2/2 is ~4e-18 relative — below half an ulp.
inline constexpr double kExpPoly[12] = {
    1.0 / 2,         1.0 / 6,          1.0 / 24,          1.0 / 120,
    1.0 / 720,       1.0 / 5040,       1.0 / 40320,       1.0 / 362880,
    1.0 / 3628800,   1.0 / 39916800.0, 1.0 / 479001600.0,
    1.0 / 6227020800.0};

template <class V>
inline typename V::Reg PolyP(typename V::Reg r) {
  using R = typename V::Reg;
  // Estrin evaluation of the degree-11 polynomial. Horner's 11 serial
  // mul+add links dominate the single-lane inline path (kernels.h small
  // -batch dispatch), which is latency-bound; Estrin's tree needs the
  // same ~21 operations but a ~3x shorter critical path. Every backend
  // and the scalar reference instantiate this identical operation tree,
  // so the §13 bitwise contract is unaffected by the restructuring (the
  // result differs from the Horner form by ~1 ulp, far inside the
  // kernel's accuracy budget — see the header comment in kernels.h).
  const R r2 = V::Mul(r, r);
  const R r4 = V::Mul(r2, r2);
  const auto pair = [&](int j) {  // c[j] + c[j+1] * r
    return V::Add(V::Set1(kExpPoly[j]), V::Mul(V::Set1(kExpPoly[j + 1]), r));
  };
  const R q0 = V::Add(pair(0), V::Mul(r2, pair(2)));    // c0..c3
  const R q1 = V::Add(pair(4), V::Mul(r2, pair(6)));    // c4..c7 (* r^4)
  const R q2 = V::Add(pair(8), V::Mul(r2, pair(10)));   // c8..c11 (* r^8)
  return V::Add(q0, V::Mul(r4, V::Add(q1, V::Mul(r4, q2))));
}

template <class V>
inline typename V::Reg ClampExpArg(typename V::Reg x) {
  const typename V::Reg lo = V::Set1(kExpLo);
  const typename V::Reg hi = V::Set1(kExpHi);
  // min/max via compare + select: identical NaN/zero behavior on every
  // backend (minpd/vminq disagree; this form never does).
  const typename V::Reg xl = V::Select(V::CmpLt(x, lo), lo, x);
  return V::Select(V::CmpLt(hi, xl), hi, xl);
}

// Shared reduction core: computes q = expm1(r) and scale = 2^k for
// xc = k ln2 + r.
template <class V>
inline void ExpCore(typename V::Reg xc, typename V::Reg* q,
                    typename V::Reg* scale) {
  using R = typename V::Reg;
  const R magic = V::Set1(kRoundMagic);
  const R kd =
      V::Sub(V::Add(V::Mul(xc, V::Set1(kInvLn2)), magic), magic);
  const R r = V::Sub(V::Sub(xc, V::Mul(kd, V::Set1(kLn2Hi))),
                     V::Mul(kd, V::Set1(kLn2Lo)));
  *q = V::Add(r, V::Mul(V::Mul(r, r), PolyP<V>(r)));
  *scale = V::Pow2I(kd);
}

template <class V>
inline typename V::Reg Expm1Lanes(typename V::Reg x) {
  using R = typename V::Reg;
  const R xc = ClampExpArg<V>(x);
  R q, scale;
  ExpCore<V>(xc, &q, &scale);
  const R one = V::Set1(1.0);
  const R full = V::Sub(V::Mul(V::Add(one, q), scale), one);
  // |x| < kSmallThresh ⇒ k == 0 and r == xc == x: q IS expm1(x).
  const R ax = V::AndNot(V::Set1(-0.0), x);
  return V::Select(V::CmpLt(ax, V::Set1(kSmallThresh)), q, full);
}

template <class V>
inline typename V::Reg ExpLanes(typename V::Reg x) {
  using R = typename V::Reg;
  const R xc = ClampExpArg<V>(x);
  R q, scale;
  ExpCore<V>(xc, &q, &scale);
  return V::Mul(V::Add(V::Set1(1.0), q), scale);
}

// Expm1Lanes over one 4-lane block, taking Expm1One's small-|x| branch
// per block: when every lane has |x| < kSmallThresh, the pipeline's
// Select picks q = x + x^2 P(x) in every lane (see Expm1One for why q is
// bitwise that tree there), so the tree alone is the result. Any lane at
// or above the threshold, or NaN, runs the whole pipeline. The branch
// depends only on the lane values, so every backend and the scalar twin
// take it on the same blocks. Needs V::MoveMask: 4-lane traits only.
template <class V>
inline typename V::Reg Expm1Block(typename V::Reg x) {
  using R = typename V::Reg;
  const R ax = V::AndNot(V::Set1(-0.0), x);
  if (V::MoveMask(V::CmpLt(ax, V::Set1(kSmallThresh))) == 0xF) {
    return V::Add(x, V::Mul(V::Mul(x, x), PolyP<V>(x)));
  }
  return Expm1Lanes<V>(x);
}

// One lane of the expm1 pipeline: bit-identical to what any 4-lane
// backend computes for a lane holding x (same ops, same order, per the
// VecLane1 contract in simd.h). Backs the inline small-batch dispatch
// in kernels.h.
//
// The small-|x| branch is not an approximation shortcut — it is the
// lane pipeline's own result, computed without the dead work: for
// |x| < kSmallThresh the clamp is a no-op (xc == x), the magic round
// gives kd == +0.0 so r == (x - 0.0) - 0.0 == x bit-for-bit, and the
// final Select picks q = x + x^2 P(x). Evaluating exactly that tree
// skips the reduction, Pow2I and the full-path (1+q)*scale - 1 — the
// single-lane path is latency-bound and this is most of its serve-path
// traffic (|ds/w| is almost always tiny). The lockstep tests sweep
// arguments across the threshold to pin the equivalence.
inline double Expm1One(double x) {
  const double ax = std::bit_cast<double>(
      std::bit_cast<uint64_t>(x) & ~(uint64_t{1} << 63));
  if (ax < kSmallThresh) {
    return x + (x * x) * PolyP<simd::VecLane1>(x);
  }
  return Expm1Lanes<simd::VecLane1>(x);
}

}  // namespace wmlp::kernels::detail
