// Portable 4-lane double vector layer backing src/kernels/.
//
// One logical register shape — four IEEE doubles — implemented over AVX2
// (one __m256d), SSE2 and NEON (two 128-bit halves, lanes {0,1} / {2,3}),
// and a plain-array scalar fallback. Kernels are written once as
// templates over one of these traits classes and instantiated twice per
// TU: against the configure-time native type (VecNative) and against
// VecScalar, the reference whose lane arithmetic *defines* the kernel
// semantics (docs/ARCHITECTURE.md §13).
//
// The bit-for-bit SIMD == scalar contract rests on three properties of
// this layer:
//   * every operation is a plain IEEE-754 binary64 lane operation with
//     round-to-nearest-even — no FMA intrinsics, no approximate
//     reciprocal/rsqrt, no flush-to-zero;
//   * anything with implementation latitude (min/max NaN behavior,
//     rounding helpers) is either excluded or defined once in terms of
//     the portable ops (compare + bitwise select, the magic-number
//     round in kernel_impl.h) so all backends compute the identical
//     bit pattern;
//   * ReduceAdd fixes the horizontal order to (v0 + v2) + (v1 + v3) —
//     the natural halves-then-lanes order on the two-register backends —
//     and the scalar trait mirrors it literally.
// The whole project is compiled with -ffp-contract=off (top-level
// CMakeLists.txt) so the compiler cannot contract a*b + c into an FMA
// in one TU (or one inlined copy of a kernel) but not another.
//
// Selection: WMLP_SIMD=off defines WMLP_SIMD_SCALAR, forcing VecNative =
// VecScalar. Otherwise the best ISA the compiler targets wins (AVX2 >
// SSE2 > NEON > scalar); see the WMLP_SIMD cache option for how `auto`
// decides what the compiler targets.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>

#if !defined(WMLP_SIMD_SCALAR)
#if defined(__AVX2__)
#define WMLP_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define WMLP_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define WMLP_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace wmlp::simd {

// Logical lane count of every trait below. Kernels assume exactly this.
inline constexpr int kLanes = 4;

// Reference backend: the semantics every SIMD trait must reproduce
// bit-for-bit. Masks are all-ones / all-zeros doubles (as produced by
// hardware compares) and the bitwise ops run on the uint64 images, so
// Select/And/AndNot behave identically to their vector twins even for
// NaN payloads and signed zeros.
struct VecScalar {
  struct Reg {
    double v[4];
  };

  static const char* Name() { return "scalar"; }

  static Reg Load(const double* p) {
    Reg r;
    std::memcpy(r.v, p, sizeof r.v);
    return r;
  }
  static void Store(double* p, Reg r) { std::memcpy(p, r.v, sizeof r.v); }
  static Reg Set1(double x) { return Reg{{x, x, x, x}}; }

  static Reg Add(Reg a, Reg b) {
    return Reg{{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2],
                a.v[3] + b.v[3]}};
  }
  static Reg Sub(Reg a, Reg b) {
    return Reg{{a.v[0] - b.v[0], a.v[1] - b.v[1], a.v[2] - b.v[2],
                a.v[3] - b.v[3]}};
  }
  static Reg Mul(Reg a, Reg b) {
    return Reg{{a.v[0] * b.v[0], a.v[1] * b.v[1], a.v[2] * b.v[2],
                a.v[3] * b.v[3]}};
  }
  static Reg Div(Reg a, Reg b) {
    return Reg{{a.v[0] / b.v[0], a.v[1] / b.v[1], a.v[2] / b.v[2],
                a.v[3] / b.v[3]}};
  }

  static Reg CmpLt(Reg a, Reg b) {
    Reg r;
    for (int i = 0; i < 4; ++i) {
      r.v[i] = std::bit_cast<double>(
          a.v[i] < b.v[i] ? ~uint64_t{0} : uint64_t{0});
    }
    return r;
  }
  static Reg CmpEq(Reg a, Reg b) {
    Reg r;
    for (int i = 0; i < 4; ++i) {
      // wmlp-lint-allow(float-eq): this IS the bitwise-identity compare
      // primitive (waterfill's stale-entry filter); NaN != NaN like cmppd.
      r.v[i] = std::bit_cast<double>(
          a.v[i] == b.v[i] ? ~uint64_t{0} : uint64_t{0});
    }
    return r;
  }

  static Reg And(Reg a, Reg b) {
    Reg r;
    for (int i = 0; i < 4; ++i) {
      r.v[i] = std::bit_cast<double>(std::bit_cast<uint64_t>(a.v[i]) &
                                     std::bit_cast<uint64_t>(b.v[i]));
    }
    return r;
  }
  // ~a & b (andnpd operand order).
  static Reg AndNot(Reg a, Reg b) {
    Reg r;
    for (int i = 0; i < 4; ++i) {
      r.v[i] = std::bit_cast<double>(~std::bit_cast<uint64_t>(a.v[i]) &
                                     std::bit_cast<uint64_t>(b.v[i]));
    }
    return r;
  }
  static Reg Or(Reg a, Reg b) {
    Reg r;
    for (int i = 0; i < 4; ++i) {
      r.v[i] = std::bit_cast<double>(std::bit_cast<uint64_t>(a.v[i]) |
                                     std::bit_cast<uint64_t>(b.v[i]));
    }
    return r;
  }
  // mask ? a : b, bitwise (mask lanes are all-ones or all-zeros).
  static Reg Select(Reg mask, Reg a, Reg b) {
    return Or(And(mask, a), AndNot(mask, b));
  }

  // 2^k for an integral-valued k in [-1022, 1023]: exponent-field
  // construction, exact on every backend. A NaN k (exp of a NaN, whose
  // lane is NaN whatever the scale) gives 2^0, as every vector backend's
  // conversion does; casting it to an integer would be undefined.
  static Reg Pow2I(Reg k) {
    Reg r;
    for (int i = 0; i < 4; ++i) r.v[i] = Pow2IOne(k.v[i]);
    return r;
  }
  static double Pow2IOne(double k) {
    const int64_t ki = k < 2048.0 ? static_cast<int64_t>(k) : 0;
    return std::bit_cast<double>(static_cast<uint64_t>(ki + 1023) << 52);
  }

  // Sign-bit mask of the four lanes, lane 0 in bit 0 (movmskpd layout).
  static int MoveMask(Reg a) {
    int m = 0;
    for (int i = 0; i < 4; ++i) {
      m |= static_cast<int>(std::bit_cast<uint64_t>(a.v[i]) >> 63) << i;
    }
    return m;
  }

  // Fixed-order horizontal sum: halves first, then lanes. Every backend
  // reduces in exactly this order (the §13 determinism contract).
  static double ReduceAdd(Reg a) {
    const double s02 = a.v[0] + a.v[2];
    const double s13 = a.v[1] + a.v[3];
    return s02 + s13;
  }
};

// Single-lane twin of VecScalar (Reg = one double): each operation is the
// per-lane body of the VecScalar op verbatim, so a kernel_impl.h template
// instantiated over VecLane1 computes, for one lane, the exact bit
// pattern the 4-lane backends compute for that lane. This is what lets
// kernels.h run the lane pipeline inline on tiny inputs (the small-batch
// dispatch) while keeping the §13 bitwise contract: same ops, same
// order, no pad traffic. Only the ops the exp/expm1 pipeline needs are
// provided.
struct VecLane1 {
  using Reg = double;

  static const char* Name() { return "lane1"; }

  static Reg Set1(double x) { return x; }
  static Reg Add(Reg a, Reg b) { return a + b; }
  static Reg Sub(Reg a, Reg b) { return a - b; }
  static Reg Mul(Reg a, Reg b) { return a * b; }
  static Reg Div(Reg a, Reg b) { return a / b; }

  static Reg CmpLt(Reg a, Reg b) {
    return std::bit_cast<double>(a < b ? ~uint64_t{0} : uint64_t{0});
  }
  static Reg And(Reg a, Reg b) {
    return std::bit_cast<double>(std::bit_cast<uint64_t>(a) &
                                 std::bit_cast<uint64_t>(b));
  }
  // ~a & b (andnpd operand order).
  static Reg AndNot(Reg a, Reg b) {
    return std::bit_cast<double>(~std::bit_cast<uint64_t>(a) &
                                 std::bit_cast<uint64_t>(b));
  }
  static Reg Or(Reg a, Reg b) {
    return std::bit_cast<double>(std::bit_cast<uint64_t>(a) |
                                 std::bit_cast<uint64_t>(b));
  }
  // mask ? a : b, bitwise (the mask is all-ones or all-zeros).
  static Reg Select(Reg mask, Reg a, Reg b) {
    return Or(And(mask, a), AndNot(mask, b));
  }

  // 2^k for an integral-valued k in [-1022, 1023] (NaN: 2^0).
  static Reg Pow2I(Reg k) { return VecScalar::Pow2IOne(k); }
};

#if defined(WMLP_SIMD_AVX2)

struct VecAvx2 {
  using Reg = __m256d;

  static const char* Name() { return "avx2"; }

  static Reg Load(const double* p) { return _mm256_loadu_pd(p); }
  static void Store(double* p, Reg r) { _mm256_storeu_pd(p, r); }
  static Reg Set1(double x) { return _mm256_set1_pd(x); }

  static Reg Add(Reg a, Reg b) { return _mm256_add_pd(a, b); }
  static Reg Sub(Reg a, Reg b) { return _mm256_sub_pd(a, b); }
  static Reg Mul(Reg a, Reg b) { return _mm256_mul_pd(a, b); }
  static Reg Div(Reg a, Reg b) { return _mm256_div_pd(a, b); }

  static Reg CmpLt(Reg a, Reg b) {
    return _mm256_cmp_pd(a, b, _CMP_LT_OQ);
  }
  static Reg CmpEq(Reg a, Reg b) {
    return _mm256_cmp_pd(a, b, _CMP_EQ_OQ);
  }

  static Reg And(Reg a, Reg b) { return _mm256_and_pd(a, b); }
  static Reg AndNot(Reg a, Reg b) { return _mm256_andnot_pd(a, b); }
  static Reg Or(Reg a, Reg b) { return _mm256_or_pd(a, b); }
  static Reg Select(Reg mask, Reg a, Reg b) {
    // blendv keys on the sign bit; masks here are all-ones / all-zeros,
    // so this equals the bitwise Or(And, AndNot) form exactly.
    return _mm256_blendv_pd(b, a, mask);
  }

  static Reg Pow2I(Reg k) {
    const __m128i k32 =
        _mm_add_epi32(_mm256_cvtpd_epi32(k), _mm_set1_epi32(1023));
    const __m256i bits = _mm256_slli_epi64(_mm256_cvtepi32_epi64(k32), 52);
    return _mm256_castsi256_pd(bits);
  }

  static int MoveMask(Reg a) { return _mm256_movemask_pd(a); }

  static double ReduceAdd(Reg a) {
    const __m128d lo = _mm256_castpd256_pd128(a);
    const __m128d hi = _mm256_extractf128_pd(a, 1);
    const __m128d s = _mm_add_pd(lo, hi);  // {v0 + v2, v1 + v3}
    return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
  }
};

using VecNative = VecAvx2;

#elif defined(WMLP_SIMD_SSE2)

struct VecSse2 {
  struct Reg {
    __m128d lo;  // lanes 0, 1
    __m128d hi;  // lanes 2, 3
  };

  static const char* Name() { return "sse2"; }

  static Reg Load(const double* p) {
    return Reg{_mm_loadu_pd(p), _mm_loadu_pd(p + 2)};
  }
  static void Store(double* p, Reg r) {
    _mm_storeu_pd(p, r.lo);
    _mm_storeu_pd(p + 2, r.hi);
  }
  static Reg Set1(double x) {
    const __m128d v = _mm_set1_pd(x);
    return Reg{v, v};
  }

  static Reg Add(Reg a, Reg b) {
    return Reg{_mm_add_pd(a.lo, b.lo), _mm_add_pd(a.hi, b.hi)};
  }
  static Reg Sub(Reg a, Reg b) {
    return Reg{_mm_sub_pd(a.lo, b.lo), _mm_sub_pd(a.hi, b.hi)};
  }
  static Reg Mul(Reg a, Reg b) {
    return Reg{_mm_mul_pd(a.lo, b.lo), _mm_mul_pd(a.hi, b.hi)};
  }
  static Reg Div(Reg a, Reg b) {
    return Reg{_mm_div_pd(a.lo, b.lo), _mm_div_pd(a.hi, b.hi)};
  }

  static Reg CmpLt(Reg a, Reg b) {
    return Reg{_mm_cmplt_pd(a.lo, b.lo), _mm_cmplt_pd(a.hi, b.hi)};
  }
  static Reg CmpEq(Reg a, Reg b) {
    return Reg{_mm_cmpeq_pd(a.lo, b.lo), _mm_cmpeq_pd(a.hi, b.hi)};
  }

  static Reg And(Reg a, Reg b) {
    return Reg{_mm_and_pd(a.lo, b.lo), _mm_and_pd(a.hi, b.hi)};
  }
  static Reg AndNot(Reg a, Reg b) {
    return Reg{_mm_andnot_pd(a.lo, b.lo), _mm_andnot_pd(a.hi, b.hi)};
  }
  static Reg Or(Reg a, Reg b) {
    return Reg{_mm_or_pd(a.lo, b.lo), _mm_or_pd(a.hi, b.hi)};
  }
  static Reg Select(Reg mask, Reg a, Reg b) {
    return Or(And(mask, a), AndNot(mask, b));
  }

  static Reg Pow2I(Reg k) {
    // cvtpd_epi32 is exact on integral input; k + 1023 >= 1 so the
    // zero-extending unpack is a correct widen.
    const __m128i bias = _mm_set1_epi32(1023);
    const __m128i zero = _mm_setzero_si128();
    const __m128i klo = _mm_add_epi32(_mm_cvtpd_epi32(k.lo), bias);
    const __m128i khi = _mm_add_epi32(_mm_cvtpd_epi32(k.hi), bias);
    return Reg{
        _mm_castsi128_pd(_mm_slli_epi64(_mm_unpacklo_epi32(klo, zero), 52)),
        _mm_castsi128_pd(_mm_slli_epi64(_mm_unpacklo_epi32(khi, zero), 52))};
  }

  static int MoveMask(Reg a) {
    return _mm_movemask_pd(a.lo) | (_mm_movemask_pd(a.hi) << 2);
  }

  static double ReduceAdd(Reg a) {
    const __m128d s = _mm_add_pd(a.lo, a.hi);  // {v0 + v2, v1 + v3}
    return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
  }
};

using VecNative = VecSse2;

#elif defined(WMLP_SIMD_NEON)

struct VecNeon {
  struct Reg {
    float64x2_t lo;  // lanes 0, 1
    float64x2_t hi;  // lanes 2, 3
  };

  static const char* Name() { return "neon"; }

  static Reg Load(const double* p) {
    return Reg{vld1q_f64(p), vld1q_f64(p + 2)};
  }
  static void Store(double* p, Reg r) {
    vst1q_f64(p, r.lo);
    vst1q_f64(p + 2, r.hi);
  }
  static Reg Set1(double x) {
    const float64x2_t v = vdupq_n_f64(x);
    return Reg{v, v};
  }

  static Reg Add(Reg a, Reg b) {
    return Reg{vaddq_f64(a.lo, b.lo), vaddq_f64(a.hi, b.hi)};
  }
  static Reg Sub(Reg a, Reg b) {
    return Reg{vsubq_f64(a.lo, b.lo), vsubq_f64(a.hi, b.hi)};
  }
  static Reg Mul(Reg a, Reg b) {
    return Reg{vmulq_f64(a.lo, b.lo), vmulq_f64(a.hi, b.hi)};
  }
  static Reg Div(Reg a, Reg b) {
    return Reg{vdivq_f64(a.lo, b.lo), vdivq_f64(a.hi, b.hi)};
  }

  static Reg CmpLt(Reg a, Reg b) {
    return Reg{vreinterpretq_f64_u64(vcltq_f64(a.lo, b.lo)),
               vreinterpretq_f64_u64(vcltq_f64(a.hi, b.hi))};
  }
  static Reg CmpEq(Reg a, Reg b) {
    return Reg{vreinterpretq_f64_u64(vceqq_f64(a.lo, b.lo)),
               vreinterpretq_f64_u64(vceqq_f64(a.hi, b.hi))};
  }

  static Reg And(Reg a, Reg b) {
    return Reg{vreinterpretq_f64_u64(
                   vandq_u64(vreinterpretq_u64_f64(a.lo),
                             vreinterpretq_u64_f64(b.lo))),
               vreinterpretq_f64_u64(
                   vandq_u64(vreinterpretq_u64_f64(a.hi),
                             vreinterpretq_u64_f64(b.hi)))};
  }
  static Reg AndNot(Reg a, Reg b) {
    // vbicq(x, y) = x & ~y, so AndNot(a, b) = ~a & b = vbicq(b, a).
    return Reg{vreinterpretq_f64_u64(
                   vbicq_u64(vreinterpretq_u64_f64(b.lo),
                             vreinterpretq_u64_f64(a.lo))),
               vreinterpretq_f64_u64(
                   vbicq_u64(vreinterpretq_u64_f64(b.hi),
                             vreinterpretq_u64_f64(a.hi)))};
  }
  static Reg Or(Reg a, Reg b) {
    return Reg{vreinterpretq_f64_u64(
                   vorrq_u64(vreinterpretq_u64_f64(a.lo),
                             vreinterpretq_u64_f64(b.lo))),
               vreinterpretq_f64_u64(
                   vorrq_u64(vreinterpretq_u64_f64(a.hi),
                             vreinterpretq_u64_f64(b.hi)))};
  }
  static Reg Select(Reg mask, Reg a, Reg b) {
    return Reg{vbslq_f64(vreinterpretq_u64_f64(mask.lo), a.lo, b.lo),
               vbslq_f64(vreinterpretq_u64_f64(mask.hi), a.hi, b.hi)};
  }

  static Reg Pow2I(Reg k) {
    // vcvtq truncates, which is exact on integral input.
    const int64x2_t bias = vdupq_n_s64(1023);
    const int64x2_t klo = vaddq_s64(vcvtq_s64_f64(k.lo), bias);
    const int64x2_t khi = vaddq_s64(vcvtq_s64_f64(k.hi), bias);
    return Reg{vreinterpretq_f64_s64(vshlq_n_s64(klo, 52)),
               vreinterpretq_f64_s64(vshlq_n_s64(khi, 52))};
  }

  static int MoveMask(Reg a) {
    const uint64x2_t lo = vreinterpretq_u64_f64(a.lo);
    const uint64x2_t hi = vreinterpretq_u64_f64(a.hi);
    return static_cast<int>(vgetq_lane_u64(lo, 0) >> 63) |
           static_cast<int>(vgetq_lane_u64(lo, 1) >> 63) << 1 |
           static_cast<int>(vgetq_lane_u64(hi, 0) >> 63) << 2 |
           static_cast<int>(vgetq_lane_u64(hi, 1) >> 63) << 3;
  }

  static double ReduceAdd(Reg a) {
    const float64x2_t s = vaddq_f64(a.lo, a.hi);  // {v0 + v2, v1 + v3}
    return vgetq_lane_f64(s, 0) + vgetq_lane_f64(s, 1);
  }
};

using VecNative = VecNeon;

#else

using VecNative = VecScalar;

#endif

// Deliberately internal linkage (not `inline`): this header is included
// from TUs compiled with different target flags (kernel TUs may get
// -mavx2), so the value is per-TU — an inline variable with differing
// initializers would be an ODR violation.
[[maybe_unused]] constexpr bool kNativeIsScalar =
#if defined(WMLP_SIMD_AVX2) || defined(WMLP_SIMD_SSE2) || \
    defined(WMLP_SIMD_NEON)
    false;
#else
    true;
#endif

}  // namespace wmlp::simd
