// Exponential-family batch kernels for the fractional solver's hot
// loops: vectorized expm1/exp, the stopping-clock Newton evaluation
// (gain + rate over the active weight groups, writing each group's
// increment), the cost accrual / lazy-offset advance from those
// increments, and the absent-mass total. The out-of-line
// bodies here (*Batch for the array kernels, *BatchLarge for the
// group-aggregate kernels whose small-m path is inline in kernels.h)
// dispatch to the configure-time SIMD backend; the *BatchScalar twins
// instantiate the identical templates over simd::VecScalar (the §13
// parity contract — see kernels.h and kernel_impl.h).
#include "kernels/kernels.h"

#include "kernels/kernel_impl.h"
#include "util/simd.h"

namespace wmlp::kernels {

namespace detail {

// Test-only dispatch override (see ForceScalar in kernels.h). Plain bool:
// written only from single-threaded test setup, read concurrently — a
// constant-false read pattern in production, so no data race exists.
// Lives in detail:: (declared extern in kernels.h) so the inline
// small-batch dispatch can read it without a function call.
bool g_force_scalar = false;

}  // namespace detail

namespace {

using detail::g_force_scalar;

template <class V>
void Expm1Impl(const double* x, double* out, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    V::Store(out + i, detail::Expm1Lanes<V>(V::Load(x + i)));
  }
  if (i < n) {
    double pad[4] = {0.0, 0.0, 0.0, 0.0};
    double res[4];
    for (size_t j = i; j < n; ++j) pad[j - i] = x[j];
    V::Store(res, detail::Expm1Lanes<V>(V::Load(pad)));
    for (size_t j = i; j < n; ++j) out[j] = res[j - i];
  }
}

template <class V>
void ExpImpl(const double* x, double* out, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    V::Store(out + i, detail::ExpLanes<V>(V::Load(x + i)));
  }
  if (i < n) {
    double pad[4] = {0.0, 0.0, 0.0, 0.0};
    double res[4];
    for (size_t j = i; j < n; ++j) pad[j - i] = x[j];
    V::Store(res, detail::ExpLanes<V>(V::Load(pad)));
    for (size_t j = i; j < n; ++j) out[j] = res[j - i];
  }
}

// Loads a possibly-partial block into a pad of neutral group aggregates
// (w = 1 so the divide is benign, everything else 0 so the lane's
// contribution to every accumulator is an exact ±0.0).
inline void PadTail(const double* src, size_t count, double fill,
                    double* pad) {
  pad[0] = fill;
  pad[1] = fill;
  pad[2] = fill;
  pad[3] = fill;
  for (size_t j = 0; j < count; ++j) pad[j] = src[j];
}

template <class V>
GainRate GainRateImpl(const double* w, const double* mass,
                      const double* e1, size_t m, double ds, double* d) {
  using R = typename V::Reg;
  const R vds = V::Set1(ds);
  R gacc = V::Set1(0.0);
  R racc = V::Set1(0.0);
  // Accumulates one block and returns its increments.
  const auto block = [&](R vw, R vm, R ve) {
    const R vd = V::Mul(ve, detail::Expm1Block<V>(V::Div(vds, vw)));
    gacc = V::Add(gacc, V::Mul(vm, vd));
    racc = V::Add(racc, V::Div(V::Mul(vm, V::Add(ve, vd)), vw));
    return vd;
  };
  size_t j = 0;
  for (; j + 4 <= m; j += 4) {
    V::Store(d + j,
             block(V::Load(w + j), V::Load(mass + j), V::Load(e1 + j)));
  }
  if (j < m) {
    double pw[4], pm[4], pe[4], pd[4];
    PadTail(w + j, m - j, 1.0, pw);
    PadTail(mass + j, m - j, 0.0, pm);
    PadTail(e1 + j, m - j, 0.0, pe);
    V::Store(pd, block(V::Load(pw), V::Load(pm), V::Load(pe)));
    for (size_t l = j; l < m; ++l) d[l] = pd[l - j];
  }
  return GainRate{V::ReduceAdd(gacc), V::ReduceAdd(racc)};
}

template <class V>
AccrueDelta AccrueAdvanceImpl(const double* w, const double* mass,
                              const double* lp, const double* d, double* e1,
                              size_t m) {
  using R = typename V::Reg;
  R movacc = V::Set1(0.0);
  R lpacc = V::Set1(0.0);
  // Accumulates one block and returns its advanced e1.
  const auto block = [&](R vw, R vm, R vl, R vd, R ve) {
    movacc = V::Add(movacc, V::Mul(V::Mul(vw, vm), vd));
    lpacc = V::Add(lpacc, V::Mul(vl, vd));
    return V::Add(ve, vd);
  };
  size_t j = 0;
  for (; j + 4 <= m; j += 4) {
    V::Store(e1 + j, block(V::Load(w + j), V::Load(mass + j),
                           V::Load(lp + j), V::Load(d + j),
                           V::Load(e1 + j)));
  }
  if (j < m) {
    double pw[4], pm[4], pl[4], pd[4], pe[4], pout[4];
    PadTail(w + j, m - j, 1.0, pw);
    PadTail(mass + j, m - j, 0.0, pm);
    PadTail(lp + j, m - j, 0.0, pl);
    PadTail(d + j, m - j, 0.0, pd);
    PadTail(e1 + j, m - j, 0.0, pe);
    V::Store(pout, block(V::Load(pw), V::Load(pm), V::Load(pl),
                         V::Load(pd), V::Load(pe)));
    for (size_t l = j; l < m; ++l) e1[l] = pout[l - j];
  }
  return AccrueDelta{V::ReduceAdd(movacc), V::ReduceAdd(lpacc)};
}

template <class V>
double AbsentMassImpl(const double* mass, const double* e1,
                      const double* cnt, size_t m, double eta) {
  using R = typename V::Reg;
  R macc = V::Set1(0.0);
  R cacc = V::Set1(0.0);
  size_t j = 0;
  for (; j + 4 <= m; j += 4) {
    macc = V::Add(macc, V::Mul(V::Load(mass + j), V::Load(e1 + j)));
    cacc = V::Add(cacc, V::Load(cnt + j));
  }
  if (j < m) {
    double pm[4], pe[4], pc[4];
    PadTail(mass + j, m - j, 0.0, pm);
    PadTail(e1 + j, m - j, 0.0, pe);
    PadTail(cnt + j, m - j, 0.0, pc);
    macc = V::Add(macc, V::Mul(V::Load(pm), V::Load(pe)));
    cacc = V::Add(cacc, V::Load(pc));
  }
  return V::ReduceAdd(macc) - eta * V::ReduceAdd(cacc);
}

}  // namespace

const char* IsaName() { return simd::VecNative::Name(); }

void ForceScalar(bool on) { g_force_scalar = on; }
bool ScalarForced() { return g_force_scalar; }

void Expm1BatchScalar(const double* x, double* out, size_t n) {
  Expm1Impl<simd::VecScalar>(x, out, n);
}
void Expm1Batch(const double* x, double* out, size_t n) {
  if (g_force_scalar) return Expm1BatchScalar(x, out, n);
  Expm1Impl<simd::VecNative>(x, out, n);
}

void ExpBatchScalar(const double* x, double* out, size_t n) {
  ExpImpl<simd::VecScalar>(x, out, n);
}
void ExpBatch(const double* x, double* out, size_t n) {
  if (g_force_scalar) return ExpBatchScalar(x, out, n);
  ExpImpl<simd::VecNative>(x, out, n);
}

GainRate GainRateBatchScalar(const double* w, const double* mass,
                             const double* e1, size_t m, double ds,
                             double* d) {
  return GainRateImpl<simd::VecScalar>(w, mass, e1, m, ds, d);
}
GainRate GainRateBatchLarge(const double* w, const double* mass,
                            const double* e1, size_t m, double ds,
                            double* d) {
  if (g_force_scalar) return GainRateBatchScalar(w, mass, e1, m, ds, d);
  return GainRateImpl<simd::VecNative>(w, mass, e1, m, ds, d);
}

AccrueDelta AccrueAdvanceBatchScalar(const double* w, const double* mass,
                                     const double* lp, const double* d,
                                     double* e1, size_t m) {
  return AccrueAdvanceImpl<simd::VecScalar>(w, mass, lp, d, e1, m);
}
AccrueDelta AccrueAdvanceBatchLarge(const double* w, const double* mass,
                                    const double* lp, const double* d,
                                    double* e1, size_t m) {
  if (g_force_scalar) {
    return AccrueAdvanceBatchScalar(w, mass, lp, d, e1, m);
  }
  return AccrueAdvanceImpl<simd::VecNative>(w, mass, lp, d, e1, m);
}

double AbsentMassBatchScalar(const double* mass, const double* e1,
                             const double* cnt, size_t m, double eta) {
  return AbsentMassImpl<simd::VecScalar>(mass, e1, cnt, m, eta);
}
double AbsentMassBatchLarge(const double* mass, const double* e1,
                            const double* cnt, size_t m, double eta) {
  if (g_force_scalar) return AbsentMassBatchScalar(mass, e1, cnt, m, eta);
  return AbsentMassImpl<simd::VecNative>(mass, e1, cnt, m, eta);
}

}  // namespace wmlp::kernels
