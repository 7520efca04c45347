// Kernel-vs-scalar lockstep battery (docs/ARCHITECTURE.md §13).
//
// The SIMD == scalar contract is *bitwise*: every kernel entry point
// must return exactly the doubles its *BatchScalar twin returns, for
// every input shape — full blocks, every tail length, denormals, signed
// zeros, and near-degenerate group aggregates. The battery drives each
// kernel over that grid and compares bit patterns, not values; the
// policy-level suite then re-runs every registry policy with the
// kernels forced scalar and asserts the whole trajectory (costs,
// hits, evictions) is bit-identical to the dispatched run.
#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "kernels/kernel_impl.h"
#include "kernels/kernels.h"
#include "registry/policy_registry.h"
#include "trace/generators.h"

namespace wmlp {
namespace {

using kernels::AccrueDelta;
using kernels::GainRate;

// Bitwise equality with readable failure output.
void ExpectBitEq(double a, double b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

// The exp-argument battery: denormals, signed zeros, values straddling
// the small-path threshold and the clamp bounds, and garden-variety
// solver arguments. (NaN is outside the kernel domain — the solver
// never produces one — and ±inf clamps.)
std::vector<double> ExpArgBattery() {
  return {
      0.0,        -0.0,        5e-324,    -5e-324,   1e-310,   -1e-310,
      1e-17,      -1e-17,      1e-9,      -1e-9,     0.1,      -0.1,
      0.3399999,  -0.3399999,  0.34,      -0.34,     0.3466,   -0.3466,
      0.5,        -0.5,        1.0,       -1.0,      2.75,     -2.75,
      8.0,        -8.0,        12.5,      -12.5,     100.0,    -100.0,
      690.0,      -690.0,      708.0,     -708.0,    709.0,    -709.0,
      750.0,      -750.0,      1e6,       -1e6,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
}

TEST(KernelIsa, NameIsKnown) {
  const std::string isa = kernels::IsaName();
  EXPECT_TRUE(isa == "avx2" || isa == "sse2" || isa == "neon" ||
              isa == "scalar")
      << isa;
}

TEST(KernelLockstep, Expm1AllTailLengths) {
  const std::vector<double> battery = ExpArgBattery();
  // Every tail length 0..17, sliding over the battery so each length
  // sees different lane contents.
  for (size_t n = 0; n <= 17; ++n) {
    for (size_t off = 0; off + n <= battery.size(); ++off) {
      std::vector<double> in(battery.begin() + off,
                             battery.begin() + off + n);
      std::vector<double> simd_out(n, 42.0);
      std::vector<double> ref_out(n, 43.0);
      kernels::Expm1Batch(in.data(), simd_out.data(), n);
      kernels::Expm1BatchScalar(in.data(), ref_out.data(), n);
      for (size_t i = 0; i < n; ++i) {
        ExpectBitEq(simd_out[i], ref_out[i],
                    "expm1(" + std::to_string(in[i]) + ") n=" +
                        std::to_string(n));
      }
    }
  }
}

TEST(KernelLockstep, ExpAllTailLengths) {
  const std::vector<double> battery = ExpArgBattery();
  for (size_t n = 0; n <= 17; ++n) {
    for (size_t off = 0; off + n <= battery.size(); ++off) {
      std::vector<double> in(battery.begin() + off,
                             battery.begin() + off + n);
      std::vector<double> simd_out(n, 42.0);
      std::vector<double> ref_out(n, 43.0);
      kernels::ExpBatch(in.data(), simd_out.data(), n);
      kernels::ExpBatchScalar(in.data(), ref_out.data(), n);
      for (size_t i = 0; i < n; ++i) {
        ExpectBitEq(simd_out[i], ref_out[i],
                    "exp(" + std::to_string(in[i]) + ") n=" +
                        std::to_string(n));
      }
    }
  }
}

// The vector expm1/exp replace libm in the solver, whose trajectory is
// cross-checked against the reference implementation at 1e-9; the
// polynomial must sit far inside that. (Not a parity test — an accuracy
// floor against libm.)
TEST(KernelAccuracy, Expm1AndExpNearLibm) {
  for (const double x : ExpArgBattery()) {
    if (!std::isfinite(x)) continue;
    double got = 0.0;
    kernels::Expm1Batch(&x, &got, 1);
    const double want = std::expm1(x);
    const double tol = 1e-13 * (1.0 + std::abs(want));
    EXPECT_NEAR(got, want, tol) << "expm1(" << x << ")";
    kernels::ExpBatch(&x, &got, 1);
    const double ewant = std::exp(x);
    if (x >= -708.0 && std::isfinite(ewant)) {
      EXPECT_NEAR(got, ewant, 1e-13 * ewant) << "exp(" << x << ")";
    }
  }
  // Denormal arguments pass through expm1 exactly.
  double out = 0.0;
  const double den = 5e-324;
  kernels::Expm1Batch(&den, &out, 1);
  ExpectBitEq(out, den, "expm1(denormal)");
}

// Group-aggregate fixtures: weights spanning 1 to the near-degenerate
// 1e12 (where ds/w is denormal-tiny and expm1 cancellation matters),
// masses including zero and signed zero.
struct GroupFixture {
  std::vector<double> w;
  std::vector<double> mass;
  std::vector<double> lp;
  std::vector<double> e1;
};

GroupFixture MakeGroups(size_t m, uint64_t salt) {
  GroupFixture f;
  const double ws[] = {1.0, 2.0, 4.0, 16.0, 1024.0, 1e6, 1e12};
  for (size_t j = 0; j < m; ++j) {
    const uint64_t h = (j * 2654435761u + salt) % 7;
    f.w.push_back(ws[h]);
    f.mass.push_back(j % 5 == 3 ? 0.0
                     : j % 5 == 4 ? -0.0
                                  : 0.25 * static_cast<double>(j + 1));
    f.lp.push_back(f.mass.back() * f.w.back());
    f.e1.push_back(1.0 + 0.125 * static_cast<double>(j % 13));
  }
  return f;
}

TEST(KernelLockstep, GainRateAllTailLengths) {
  for (size_t m = 0; m <= 17; ++m) {
    for (const double ds : {0.0, 1e-9, 0.01, 0.5, 3.0, 7.5}) {
      const GroupFixture f = MakeGroups(m, m + 1);
      std::vector<double> d_simd(m, 42.0);
      std::vector<double> d_ref(m, 43.0);
      const GainRate a = kernels::GainRateBatch(
          f.w.data(), f.mass.data(), f.e1.data(), m, ds, d_simd.data());
      const GainRate b = kernels::GainRateBatchScalar(
          f.w.data(), f.mass.data(), f.e1.data(), m, ds, d_ref.data());
      ExpectBitEq(a.gain, b.gain, "gain m=" + std::to_string(m));
      ExpectBitEq(a.rate, b.rate, "rate m=" + std::to_string(m));
      for (size_t j = 0; j < m; ++j) {
        ExpectBitEq(d_simd[j], d_ref[j],
                    "d[" + std::to_string(j) + "] m=" + std::to_string(m));
      }
    }
  }
}

// The accrual consumes the increments the gain evaluation wrote at the
// same ds, exactly as the solver chains them.
TEST(KernelLockstep, AccrueAdvanceAllTailLengths) {
  for (size_t m = 0; m <= 17; ++m) {
    for (const double ds : {0.0, 1e-9, 0.25, 2.0}) {
      const GroupFixture f = MakeGroups(m, 3 * m + 7);
      std::vector<double> d(m);
      kernels::GainRateBatchScalar(f.w.data(), f.mass.data(), f.e1.data(), m,
                                   ds, d.data());
      std::vector<double> e1_simd = f.e1;
      std::vector<double> e1_ref = f.e1;
      const AccrueDelta a = kernels::AccrueAdvanceBatch(
          f.w.data(), f.mass.data(), f.lp.data(), d.data(), e1_simd.data(),
          m);
      const AccrueDelta b = kernels::AccrueAdvanceBatchScalar(
          f.w.data(), f.mass.data(), f.lp.data(), d.data(), e1_ref.data(), m);
      ExpectBitEq(a.movement, b.movement, "movement m=" + std::to_string(m));
      ExpectBitEq(a.lp, b.lp, "lp m=" + std::to_string(m));
      for (size_t j = 0; j < m; ++j) {
        ExpectBitEq(e1_simd[j], e1_ref[j],
                    "e1[" + std::to_string(j) + "] m=" + std::to_string(m));
      }
    }
  }
}

// The inline dispatch sends m <= 4 down the VecLane1 small path, so the
// out-of-line SIMD bodies' padded-tail handling at tiny m is no longer
// reachable through *Batch. Exercise *BatchLarge directly to keep the
// full padded 4-lane block proven against the scalar reference.
TEST(KernelLockstep, LargeBodyCoversSmallM) {
  for (size_t m = 0; m <= 4; ++m) {
    for (const double ds : {0.0, 0.01, 2.5}) {
      const GroupFixture f = MakeGroups(m, 5 * m + 2);
      std::vector<double> d_simd(m, 42.0);
      std::vector<double> d_ref(m, 43.0);
      const GainRate a = kernels::GainRateBatchLarge(
          f.w.data(), f.mass.data(), f.e1.data(), m, ds, d_simd.data());
      const GainRate b = kernels::GainRateBatchScalar(
          f.w.data(), f.mass.data(), f.e1.data(), m, ds, d_ref.data());
      ExpectBitEq(a.gain, b.gain, "large gain m=" + std::to_string(m));
      ExpectBitEq(a.rate, b.rate, "large rate m=" + std::to_string(m));
      for (size_t j = 0; j < m; ++j) {
        ExpectBitEq(d_simd[j], d_ref[j], "large d[" + std::to_string(j) + "]");
      }
      std::vector<double> e1_simd = f.e1;
      std::vector<double> e1_ref = f.e1;
      const AccrueDelta c = kernels::AccrueAdvanceBatchLarge(
          f.w.data(), f.mass.data(), f.lp.data(), d_ref.data(),
          e1_simd.data(), m);
      const AccrueDelta d = kernels::AccrueAdvanceBatchScalar(
          f.w.data(), f.mass.data(), f.lp.data(), d_ref.data(),
          e1_ref.data(), m);
      ExpectBitEq(c.movement, d.movement,
                  "large movement m=" + std::to_string(m));
      ExpectBitEq(c.lp, d.lp, "large lp m=" + std::to_string(m));
      for (size_t j = 0; j < m; ++j) {
        ExpectBitEq(e1_simd[j], e1_ref[j],
                    "large e1[" + std::to_string(j) + "]");
      }
      const double e = kernels::AbsentMassBatchLarge(
          f.mass.data(), f.e1.data(), f.lp.data(), m, 0.25);
      const double g = kernels::AbsentMassBatchScalar(
          f.mass.data(), f.e1.data(), f.lp.data(), m, 0.25);
      ExpectBitEq(e, g, "large absent mass m=" + std::to_string(m));
    }
  }
}

// The increments every gain-rate entry point writes, and the accrual from
// them, against the formula the accrual used to evaluate itself: per
// group d = e1 * expm1(ds / w) with expm1 from Expm1BatchScalar, meters
// summed per lane j % 4 and reduced in the fixed (l0 + l2) + (l1 + l3)
// order, e1 advanced by d.
TEST(KernelLockstep, IncrementsMatchTheFusedAccrual) {
  for (size_t m = 0; m <= 17; ++m) {
    for (const double ds : {0.0, 1e-9, 0.01, 0.25, 2.0, 7.5}) {
      const GroupFixture f = MakeGroups(m, 7 * m + 3);
      std::vector<double> x(m);
      std::vector<double> em1(m);
      for (size_t j = 0; j < m; ++j) x[j] = ds / f.w[j];
      kernels::Expm1BatchScalar(x.data(), em1.data(), m);
      std::vector<double> want_d(m);
      std::vector<double> want_e1(m);
      double mov[4] = {0.0, 0.0, 0.0, 0.0};
      double lpl[4] = {0.0, 0.0, 0.0, 0.0};
      for (size_t j = 0; j < m; ++j) {
        want_d[j] = f.e1[j] * em1[j];
        want_e1[j] = f.e1[j] + want_d[j];
        mov[j % 4] = mov[j % 4] + (f.w[j] * f.mass[j]) * want_d[j];
        lpl[j % 4] = lpl[j % 4] + f.lp[j] * want_d[j];
      }
      const double want_mov = (mov[0] + mov[2]) + (mov[1] + mov[3]);
      const double want_lp = (lpl[0] + lpl[2]) + (lpl[1] + lpl[3]);

      using GainFn = GainRate (*)(const double*, const double*,
                                  const double*, size_t, double, double*);
      using AccrueFn = AccrueDelta (*)(const double*, const double*,
                                       const double*, const double*,
                                       double*, size_t);
      const std::pair<const char*, GainFn> gains[] = {
          {"GainRateBatch", kernels::GainRateBatch},
          {"GainRateBatchLarge", kernels::GainRateBatchLarge},
          {"GainRateBatchScalar", kernels::GainRateBatchScalar}};
      const std::pair<const char*, AccrueFn> accruals[] = {
          {"AccrueAdvanceBatch", kernels::AccrueAdvanceBatch},
          {"AccrueAdvanceBatchLarge", kernels::AccrueAdvanceBatchLarge},
          {"AccrueAdvanceBatchScalar", kernels::AccrueAdvanceBatchScalar}};
      for (const auto& [gain_name, gain] : gains) {
        const std::string at = std::string(gain_name) + " m=" +
                               std::to_string(m) + " ds=" +
                               std::to_string(ds);
        std::vector<double> d(m, 42.0);
        gain(f.w.data(), f.mass.data(), f.e1.data(), m, ds, d.data());
        for (size_t j = 0; j < m; ++j) {
          ExpectBitEq(d[j], want_d[j], "d[" + std::to_string(j) + "] " + at);
        }
        for (const auto& [accrue_name, accrue] : accruals) {
          const std::string by = at + " " + accrue_name;
          std::vector<double> e1 = f.e1;
          const AccrueDelta got = accrue(f.w.data(), f.mass.data(),
                                         f.lp.data(), d.data(), e1.data(), m);
          ExpectBitEq(got.movement, want_mov, "movement " + by);
          ExpectBitEq(got.lp, want_lp, "lp " + by);
          for (size_t j = 0; j < m; ++j) {
            ExpectBitEq(e1[j], want_e1[j],
                        "e1[" + std::to_string(j) + "] " + by);
          }
        }
      }
    }
  }
}

// Lane arguments around the block fast path: every |x| below
// kSmallThresh, the threshold itself and its nextafter neighbours, ±0,
// denormals, NaN, and ordinary full-path values.
std::vector<double> BlockPathArgs() {
  const double t = kernels::detail::kSmallThresh;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return {t,
          -t,
          std::nextafter(t, 0.0),
          std::nextafter(-t, 0.0),
          std::nextafter(t, 1.0),
          std::nextafter(-t, -1.0),
          0.0,
          -0.0,
          5e-324,
          -5e-324,
          1e-310,
          0.1,
          -0.2,
          0.33,
          0.5,
          -3.0,
          nan,
          -nan};
}

// Expm1Block's per-block shortcut is Expm1Lanes' own value: drive every
// ordered 4-lane block over the argument set above, so blocks wholly
// below the threshold, blocks straddling it and blocks holding a NaN all
// occur, through the scalar twin and this TU's native backend (the kernel
// TU's own backend is covered through GainRateBatchLarge below).
TEST(KernelLockstep, Expm1BlockMatchesTheLanePipeline) {
  using simd::VecNative;
  using simd::VecScalar;
  const std::vector<double> args = BlockPathArgs();
  const size_t k = args.size();
  size_t fast_blocks = 0;
  for (size_t a = 0; a < k; ++a) {
    for (size_t b = 0; b < k; ++b) {
      const double lanes[4] = {args[a], args[b], args[(a + b) % k],
                               args[(a * 7 + b * 3 + 1) % k]};
      bool below = true;
      for (const double v : lanes) {
        below &= std::abs(v) < kernels::detail::kSmallThresh;
      }
      fast_blocks += below ? 1 : 0;
      double block[4], pipeline[4], native[4];
      VecScalar::Store(block, kernels::detail::Expm1Block<VecScalar>(
                                  VecScalar::Load(lanes)));
      VecScalar::Store(pipeline, kernels::detail::Expm1Lanes<VecScalar>(
                                     VecScalar::Load(lanes)));
      VecNative::Store(native, kernels::detail::Expm1Block<VecNative>(
                                   VecNative::Load(lanes)));
      for (int l = 0; l < 4; ++l) {
        const std::string at = "lane " + std::to_string(l) + " x=" +
                               std::to_string(lanes[l]);
        ExpectBitEq(block[l], pipeline[l], "block vs pipeline " + at);
        ExpectBitEq(native[l], block[l], "native vs scalar " + at);
      }
    }
  }
  EXPECT_GT(fast_blocks, 0u);
}

// The same inputs through the gain-rate entry points: a shared ds over
// per-lane weights puts whole blocks below the threshold (w >= 2), at it
// (w = 1, ds = ±kSmallThresh), next to it (ds one ulp either side) and on
// both sides of it within one block, plus ±0, denormal and NaN advances.
TEST(KernelLockstep, GainRateBlockPathLockstep) {
  const double t = kernels::detail::kSmallThresh;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> advances = {
      t, -t, std::nextafter(t, 0.0), std::nextafter(t, 1.0),
      std::nextafter(-t, 0.0), std::nextafter(-t, -1.0), 0.0, -0.0,
      5e-324, 1e-310, 0.2, 0.6, nan};
  const std::vector<std::vector<double>> weight_rows = {
      {2.0, 4.0, 8.0, 16.0, 2.0, 4.0, 8.0, 16.0, 32.0},
      {1.0, 2.0, 4.0, 8.0, 1.0, 1.0, 1.0, 1.0, 1.0},
      {0.5, 2.0, 1.0, 4.0, 3.0, 1e12, 1.0, 0.75, 2.0},
      {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0}};
  for (const std::vector<double>& ws : weight_rows) {
    for (size_t m = 0; m <= ws.size(); ++m) {
      GroupFixture f = MakeGroups(m, 13 * m + 1);
      f.w.assign(ws.begin(), ws.begin() + static_cast<ptrdiff_t>(m));
      for (const double ds : advances) {
        std::vector<double> d_batch(m, 41.0);
        std::vector<double> d_large(m, 42.0);
        std::vector<double> d_ref(m, 43.0);
        const GainRate a = kernels::GainRateBatch(
            f.w.data(), f.mass.data(), f.e1.data(), m, ds, d_batch.data());
        const GainRate b = kernels::GainRateBatchLarge(
            f.w.data(), f.mass.data(), f.e1.data(), m, ds, d_large.data());
        const GainRate c = kernels::GainRateBatchScalar(
            f.w.data(), f.mass.data(), f.e1.data(), m, ds, d_ref.data());
        const std::string at =
            "m=" + std::to_string(m) + " ds=" + std::to_string(ds);
        ExpectBitEq(a.gain, c.gain, "gain " + at);
        ExpectBitEq(a.rate, c.rate, "rate " + at);
        ExpectBitEq(b.gain, c.gain, "large gain " + at);
        ExpectBitEq(b.rate, c.rate, "large rate " + at);
        for (size_t j = 0; j < m; ++j) {
          ExpectBitEq(d_batch[j], d_ref[j], "d " + at);
          ExpectBitEq(d_large[j], d_ref[j], "large d " + at);
        }
      }
    }
  }
}

TEST(KernelLockstep, AbsentMassAllTailLengths) {
  for (size_t m = 0; m <= 17; ++m) {
    GroupFixture f = MakeGroups(m, 11 * m + 5);
    std::vector<double> cnt;
    for (size_t j = 0; j < m; ++j) {
      cnt.push_back(static_cast<double>(1 + j % 4));
    }
    const double a = kernels::AbsentMassBatch(f.mass.data(), f.e1.data(),
                                              cnt.data(), m, 0.25);
    const double b = kernels::AbsentMassBatchScalar(
        f.mass.data(), f.e1.data(), cnt.data(), m, 0.25);
    ExpectBitEq(a, b, "absent mass m=" + std::to_string(m));
  }
}

TEST(KernelLockstep, WaterfillCompactAllTailLengths) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (size_t n = 0; n <= 17; ++n) {
    // Page table with keys including -0.0/+0.0 pairs and a NaN (never
    // matches its snapshot — dropped by both variants).
    std::vector<double> key = {0.0, -0.0, 1.5, 2.5, nan, 3.5, 4.5, 8.0};
    std::vector<uint8_t> live = {1, 1, 1, 0, 1, 1, 1, 1};
    std::vector<std::pair<double, int32_t>> entries;
    for (size_t i = 0; i < n; ++i) {
      const int32_t p = static_cast<int32_t>(i % key.size());
      // Every third entry is a stale snapshot (key mismatch).
      const double snap =
          i % 3 == 0 ? key[static_cast<size_t>(p)] + 1.0
                     : (p == 0 ? -0.0 : key[static_cast<size_t>(p)]);
      entries.push_back({snap, p});
    }
    std::vector<std::pair<double, int32_t>> a = entries;
    std::vector<std::pair<double, int32_t>> b = entries;
    const size_t na =
        kernels::WaterfillCompactBatch(a.data(), n, key.data(), live.data());
    const size_t nb = kernels::WaterfillCompactBatchScalar(
        b.data(), n, key.data(), live.data());
    ASSERT_EQ(na, nb) << "n=" << n;
    for (size_t i = 0; i < na; ++i) {
      ExpectBitEq(a[i].first, b[i].first, "entry key " + std::to_string(i));
      EXPECT_EQ(a[i].second, b[i].second) << "entry page " << i;
    }
    // +0.0 snapshot for a -0.0 key must survive (== compare, not bit
    // compare) — the predicate HeapPopMin applies.
    if (n >= 2) {
      bool kept_zero = false;
      for (size_t i = 0; i < na; ++i) kept_zero |= a[i].second == 1;
      EXPECT_TRUE(kept_zero) << "n=" << n;
    }
  }
}

TEST(KernelLockstep, ForceScalarReroutesDispatch) {
  const std::vector<double> in = ExpArgBattery();
  std::vector<double> dispatched(in.size());
  std::vector<double> forced(in.size());
  std::vector<double> ref(in.size());
  kernels::Expm1Batch(in.data(), dispatched.data(), in.size());
  kernels::ForceScalar(true);
  EXPECT_TRUE(kernels::ScalarForced());
  kernels::Expm1Batch(in.data(), forced.data(), in.size());
  kernels::ForceScalar(false);
  EXPECT_FALSE(kernels::ScalarForced());
  kernels::Expm1BatchScalar(in.data(), ref.data(), in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    ExpectBitEq(forced[i], ref[i], "forced dispatch");
    ExpectBitEq(dispatched[i], ref[i], "native vs scalar");
  }
}

// Whole-policy lockstep: every registry policy, served through the
// engine twice — kernels dispatched vs forced scalar — must produce a
// bit-identical SimResult. This is the "all lane configurations" claim
// at the trajectory level: any divergence in any kernel, any tail, any
// group shape the real solver produces would desync costs here.
class PolicyLockstep : public ::testing::TestWithParam<std::string> {
  void TearDown() override { kernels::ForceScalar(false); }
};

SimResult RunOnce(const std::string& name, const Trace& trace) {
  PolicyPtr policy = MakePolicyByName(name, 7);
  TraceSource source(trace);
  Engine engine(source, *policy);
  return engine.Run();
}

TEST_P(PolicyLockstep, TrajectoryBitIdenticalUnderForcedScalar) {
  const std::string name = GetParam();
  const int32_t ell = name == "marking" ? 1 : 3;
  Instance inst(64, 16, ell,
                MakeWeights(64, ell, WeightModel::kGeometricLevels, 4.0, 1));
  const Trace trace = GenZipf(inst, 1200, 0.8, LevelMix::UniformMix(ell), 5);

  kernels::ForceScalar(false);
  const SimResult dispatched = RunOnce(name, trace);
  kernels::ForceScalar(true);
  const SimResult forced = RunOnce(name, trace);
  kernels::ForceScalar(false);

  ExpectBitEq(dispatched.eviction_cost, forced.eviction_cost,
              name + " eviction_cost");
  ExpectBitEq(dispatched.fetch_cost, forced.fetch_cost,
              name + " fetch_cost");
  EXPECT_EQ(dispatched.hits, forced.hits) << name;
  EXPECT_EQ(dispatched.misses, forced.misses) << name;
  EXPECT_EQ(dispatched.evictions, forced.evictions) << name;
  EXPECT_EQ(dispatched.fetches, forced.fetches) << name;
}

INSTANTIATE_TEST_SUITE_P(AllRegistryPolicies, PolicyLockstep,
                         ::testing::ValuesIn(KnownPolicyNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace wmlp
