// Batch kernels for the hot serve paths (docs/ARCHITECTURE.md §13).
//
// Each entry point here is a flat-array pass over solver state the core
// already keeps in SoA form: the fractional solver's active-group
// aggregates (core/fractional.h), and waterfill's lazy-deletion heap
// arena (core/waterfill.cpp). Kernels are pure functions of their
// arguments — no allocation, no global state beyond the test-only
// force-scalar switch — so they are safe to call under WMLP_HOT roots.
//
// Naming and parity contract (enforced by the `kernel-parity` lint rule
// and tests/kernel_test.cpp):
//   * every kernel entry point is named *Batch and dispatches to the
//     configure-time SIMD backend (util/simd.h);
//   * the defining TU provides a *BatchScalar twin running the identical
//     template over simd::VecScalar; the two return bit-identical
//     results for every input, including tails, denormals and ±0.0;
//   * ForceScalar(true) reroutes every *Batch call to its scalar twin,
//     which is how the lockstep tests prove whole-policy bitwise
//     equality in one binary.
//
// Group-aggregate kernels: the fractional solver's only expm1 pass per
// stopping-clock evaluation is GainRateBatch, which also writes each
// group's increment; AccrueAdvanceBatch then advances the cost meters
// and e1 from those increments with no exponential of its own.
//
// Small-batch dispatch: the three group-aggregate kernels are called
// with m = #distinct cursor weights, which is tiny (<= ell, typically
// 2–4) whenever level weights are device properties. At that size the
// out-of-line call plus pad-block staging costs more than the math, so
// the *Batch entry points are inline here: for m <= 4 they run the
// identical lane pipeline per element via simd::VecLane1 (bit-equal to
// the padded 4-lane block by construction — pad lanes contribute exact
// +0.0) and reduce in the fixed (l0 + l2) + (l1 + l3) order; larger m —
// per-page weights, one group per weight class under the randomized
// policy — goes to the out-of-line *BatchLarge SIMD body. The lockstep
// tests cover m on both sides of the threshold.
//
// The vector exp/expm1 use a shared degree-13 polynomial after
// Cody–Waite range reduction (see kernel_impl.h). Accuracy is a few ulp
// — far inside the solver's 1e-9 reference-trajectory tolerance — and
// the argument is clamped to [-708, 709]: below the clamp expm1 rounds
// to -1 exactly anyway, and the solver never evaluates exp outside
// [0, ~log(1 + 1/eta)]. Signed zero is not preserved (expm1(-0.0) is
// +0.0 on every backend, consistently).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "kernels/kernel_impl.h"

namespace wmlp::kernels {

namespace detail {
// Test-only dispatch override set by ForceScalar() (defined in
// exp_kernels.cpp). Read inline by the small-batch dispatch below.
extern bool g_force_scalar;
}  // namespace detail

// ISA the *Batch entry points dispatch to ("avx2", "sse2", "neon" or
// "scalar"); fixed at configure time by -DWMLP_SIMD and the compiler's
// target flags. Recorded in bench metadata (bench/bench_util.h).
const char* IsaName();

// Test hook: route every *Batch entry point to its *BatchScalar twin.
// Not thread-safe — flip it only from single-threaded test setup, never
// while serve threads run.
void ForceScalar(bool on);
bool ScalarForced();

// Engine-side prefetch distance for the batched serve front (requests
// ahead of the one being served whose per-page rows get prefetched).
// Tuned by the perf driver's gather sweep (bench_perf_suite's
// kernel-gather-pf* rows): on the reference machine the miss latency of a
// 64-byte PageRec row is covered at distance ~8 and flat beyond it.
inline constexpr int32_t kBatchPrefetchDistance = 8;

// Footprint gate for the batched prefetch front: a policy reports a
// non-zero PrefetchDistance() only when its per-page serve state exceeds
// this bound. Below it the state fits comfortably in the last-level
// cache, the rows the front would prefetch are already resident, and
// the per-request validity checks + prefetch instructions are a pure
// measured loss (bench_perf_suite: waterfill at n <= 1e6 regressed
// 15–25% with an ungated front, and recovered exactly with pf = 0).
// 32 MiB sits above every bench working set that measured as a loss and
// below the n = 1e6 fractional PageRec array (64 MB) where the gather
// sweep shows distance-8 prefetch covering the miss latency ~2x.
inline constexpr int64_t kPrefetchMinFootprintBytes = int64_t{32} << 20;

// out[i] = expm1(x[i]) (clamped domain; see header comment).
void Expm1Batch(const double* x, double* out, size_t n);
void Expm1BatchScalar(const double* x, double* out, size_t n);

// out[i] = exp(x[i]) (clamped domain).
void ExpBatch(const double* x, double* out, size_t n);
void ExpBatchScalar(const double* x, double* out, size_t n);

// Segment gain and its clock derivative over the active weight groups,
// for a clock advance of `ds` past the instant the e1 factors were
// synced to. Per group j, with d_j = e1[j] * expm1(ds / w[j]):
//   gain += mass[j] * d_j
//   rate += mass[j] * (e1[j] + d_j) / w[j]
//   d[j]  = d_j     (the increments AccrueAdvanceBatch consumes)
// Reductions run in the fixed 4-lane order of simd.h (§13). A block
// whose four arguments ds / w all lie below kSmallThresh returns expm1's
// polynomial directly (Expm1Block in kernel_impl.h), as Expm1One does
// per lane.
struct GainRate {
  double gain;
  double rate;
};
GainRate GainRateBatchLarge(const double* w, const double* mass,
                            const double* e1, size_t m, double ds,
                            double* d);
GainRate GainRateBatchScalar(const double* w, const double* mass,
                             const double* e1, size_t m, double ds,
                             double* d);
inline GainRate GainRateBatch(const double* w, const double* mass,
                              const double* e1, size_t m, double ds,
                              double* d) {
  if (m <= 4 && !detail::g_force_scalar) {
    // One padded 4-lane block, lane by lane, kept in register scalars
    // (an indexed double[4] forces stack stores the caller then reloads
    // — measurably slower than the math at this size). Literal 0.0
    // lanes stand in for the neutral pad (w = 1, mass = e1 = 0 makes d
    // and both accumulator terms exact +0.0); `0.0 +` mirrors the
    // lane's add into the zero-initialized accumulator (it rewrites
    // -0.0 terms to +0.0 exactly like the block form does).
    double g0 = 0.0, g1 = 0.0, g2 = 0.0, g3 = 0.0;
    double r0 = 0.0, r1 = 0.0, r2 = 0.0, r3 = 0.0;
    const auto lane = [&](size_t j, double& g, double& r) {
      const double dj = e1[j] * detail::Expm1One(ds / w[j]);
      d[j] = dj;
      g = 0.0 + mass[j] * dj;
      r = 0.0 + (mass[j] * (e1[j] + dj)) / w[j];
    };
    if (m > 0) lane(0, g0, r0);
    if (m > 1) lane(1, g1, r1);
    if (m > 2) lane(2, g2, r2);
    if (m > 3) lane(3, g3, r3);
    return GainRate{(g0 + g2) + (g1 + g3), (r0 + r2) + (r1 + r3)};
  }
  return GainRateBatchLarge(w, mass, e1, m, ds, d);
}

// Cost-meter advance for a clock move whose per-group increments
// d[j] = e1[j] * expm1(ds / w[j]) GainRateBatch wrote for that ds; no
// exponential is evaluated here:
//   movement += w[j] * mass[j] * d[j]
//   lp       += lp[j] * d[j]
//   e1[j]    += d[j]       (in place: e1 now reflects the new clock)
// Bit-identical to evaluating the increments in the same pass.
struct AccrueDelta {
  double movement;
  double lp;
};
AccrueDelta AccrueAdvanceBatchLarge(const double* w, const double* mass,
                                    const double* lp, const double* d,
                                    double* e1, size_t m);
AccrueDelta AccrueAdvanceBatchScalar(const double* w, const double* mass,
                                     const double* lp, const double* d,
                                     double* e1, size_t m);
inline AccrueDelta AccrueAdvanceBatch(const double* w, const double* mass,
                                      const double* lp, const double* d,
                                      double* e1, size_t m) {
  if (m <= 4 && !detail::g_force_scalar) {
    double m0 = 0.0, m1 = 0.0, m2 = 0.0, m3 = 0.0;
    double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
    const auto lane = [&](size_t j, double& mo, double& lo) {
      mo = 0.0 + (w[j] * mass[j]) * d[j];
      lo = 0.0 + lp[j] * d[j];
      e1[j] = e1[j] + d[j];
    };
    if (m > 0) lane(0, m0, l0);
    if (m > 1) lane(1, m1, l1);
    if (m > 2) lane(2, m2, l2);
    if (m > 3) lane(3, m3, l3);
    return AccrueDelta{(m0 + m2) + (m1 + m3), (l0 + l2) + (l1 + l3)};
  }
  return AccrueAdvanceBatchLarge(w, mass, lp, d, e1, m);
}

// Total absent mass over the active groups:
//   sum_j mass[j] * e1[j]  -  eta * sum_j cnt[j]
// with both sums reduced in the fixed 4-lane order.
double AbsentMassBatchLarge(const double* mass, const double* e1,
                            const double* cnt, size_t m, double eta);
double AbsentMassBatchScalar(const double* mass, const double* e1,
                             const double* cnt, size_t m, double eta);
inline double AbsentMassBatch(const double* mass, const double* e1,
                              const double* cnt, size_t m, double eta) {
  if (m <= 4 && !detail::g_force_scalar) {
    double m0 = 0.0, m1 = 0.0, m2 = 0.0, m3 = 0.0;
    double c0 = 0.0, c1 = 0.0, c2 = 0.0, c3 = 0.0;
    const auto lane = [&](size_t j, double& ma, double& ca) {
      ma = 0.0 + mass[j] * e1[j];
      ca = 0.0 + cnt[j];
    };
    if (m > 0) lane(0, m0, c0);
    if (m > 1) lane(1, m1, c1);
    if (m > 2) lane(2, m2, c2);
    if (m > 3) lane(3, m3, c3);
    return ((m0 + m2) + (m1 + m3)) - eta * ((c0 + c2) + (c1 + c3));
  }
  return AbsentMassBatchLarge(mass, e1, cnt, m, eta);
}

// Order-preserving compaction of waterfill's lazy-deletion heap arena:
// keeps entries[i] iff live[page] != 0 and key[page] bit-matches the
// stored snapshot (the same predicate HeapPopMin applies one entry at a
// time). Returns the new length. `key`/`live` are the policy's per-page
// tables; pages referenced by entries must be in range.
size_t WaterfillCompactBatch(std::pair<double, int32_t>* entries,
                             size_t n, const double* key,
                             const uint8_t* live);
size_t WaterfillCompactBatchScalar(std::pair<double, int32_t>* entries,
                                   size_t n, const double* key,
                                   const uint8_t* live);

}  // namespace wmlp::kernels
