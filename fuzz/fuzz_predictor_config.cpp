// libFuzzer target: the prediction-config surface (docs/ARCHITECTURE.md
// §14) — noise-model validation, predictive-combiner options, and the
// registry's "predictive:" string parser.
//
// Decodes the input bytes into NoiseOptions / PredictiveOptions whose eta,
// lambda, and alpha come from raw double bit patterns (NaN, infinities,
// denormals, negative zero all reachable) and whose horizon is a raw
// int64, then checks the layered contract:
//
//   1. MakeNoisyPredictor never crashes and returns nullptr exactly when
//      the documented validation rejects (NaN/non-finite/negative eta,
//      kind=none with eta > 0, swap probability > 1, stale epoch > 1e15).
//   2. Accepted noise configs honor the Predictor contract on a primed
//      EwmaPredictor: every sampled prediction is non-NaN and strictly
//      after `now`; answers are bitwise identical on a second identically
//      seeded predictor queried in reverse order (determinism + query-
//      order independence).
//   3. MakePredictivePolicy returns nullptr exactly when lambda is outside
//      [0, 1], alpha outside (0, 1], horizon negative, or the noise
//      options are invalid — and the registry's strict "predictive:k=v"
//      parser agrees with the structured API on every round-tripped
//      config ("%.17g" preserves finite doubles exactly; the parser
//      refuses "nan" and "inf", which the structured API rejects too).
//   4. Accepted policies actually serve: two engine runs over the decoded
//      trace are bitwise identical (the determinism contract).
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "engine/request_source.h"
#include "predict/noise.h"
#include "predict/predictive_policy.h"
#include "predict/predictor.h"
#include "registry/policy_registry.h"
#include "trace/generators.h"
#include "trace/trace.h"
#include "util/check.h"
#include "util/rng.h"

using namespace wmlp;

namespace {

struct ByteReader {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;

  uint8_t Next() { return pos < size ? data[pos++] : 0; }
  int64_t Next64() {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | Next();
    return static_cast<int64_t>(v);
  }
  double NextDouble() {
    return std::bit_cast<double>(static_cast<uint64_t>(Next64()));
  }
  bool done() const { return pos >= size; }
};

constexpr int64_t kMaxRequests = 128;

// Mirrors MakeNoisyPredictor's documented reject rules.
bool NoiseMustReject(const predict::NoiseOptions& noise) {
  return std::isnan(noise.eta) || !std::isfinite(noise.eta) ||
         noise.eta < 0.0 ||
         (noise.kind == predict::NoiseKind::kNone && noise.eta > 0.0) ||
         (noise.kind == predict::NoiseKind::kSwap && noise.eta > 1.0) ||
         (noise.kind == predict::NoiseKind::kStale && noise.eta > 1e15);
}

// Mirrors MakePredictivePolicy's documented reject rules.
bool PredictiveMustReject(const predict::PredictiveOptions& options) {
  predict::NoiseOptions noise;
  noise.kind = options.noise;
  noise.eta = options.eta;
  return std::isnan(options.lambda) || !std::isfinite(options.lambda) ||
         options.lambda < 0.0 || options.lambda > 1.0 ||
         std::isnan(options.ewma_alpha) || options.ewma_alpha <= 0.0 ||
         options.ewma_alpha > 1.0 || options.horizon < 0 ||
         NoiseMustReject(noise);
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  ByteReader in{data, size};

  const auto kind = static_cast<predict::NoiseKind>(in.Next() % 4);
  predict::NoiseOptions noise;
  noise.kind = kind;
  noise.eta = in.NextDouble();
  noise.seed = 1 + static_cast<uint64_t>(in.Next());

  const int32_t n = 1 + static_cast<int32_t>(in.Next() % 24);  // 1..24
  const int32_t k = 1 + static_cast<int32_t>(in.Next() % n);   // 1..n
  const int32_t ell = 1 + static_cast<int32_t>(in.Next() % 3);
  const uint64_t seed = 1 + static_cast<uint64_t>(in.Next());

  Instance inst(n, k, ell,
                MakeWeights(n, ell, WeightModel::kLogUniform, 16.0, seed));

  // --- 1 + 2: noise validation and the Predictor contract ---------------
  {
    std::string error;
    predict::PredictorPtr noisy = predict::MakeNoisyPredictor(
        std::make_unique<predict::EwmaPredictor>(), noise, &error);
    if (NoiseMustReject(noise)) {
      WMLP_CHECK_MSG(noisy == nullptr, "invalid noise options accepted");
      WMLP_CHECK_MSG(!error.empty(), "noise reject without an error message");
    } else {
      WMLP_CHECK_MSG(noisy != nullptr, "valid noise options rejected");
      predict::PredictorPtr twin = predict::MakeNoisyPredictor(
          std::make_unique<predict::EwmaPredictor>(), noise, nullptr);
      noisy->Attach(inst);
      twin->Attach(inst);
      // Prime both bases identically so EWMA gaps exist for some pages.
      for (Time t = 0; t < 16; ++t) {
        const Request r{static_cast<PageId>(t % n), 1};
        noisy->Observe(t, r);
        twin->Observe(t, r);
      }
      std::vector<std::pair<Time, PageId>> queries;
      for (Time now = 15; now < 24; ++now) {
        for (PageId p = 0; p < n; ++p) queries.emplace_back(now, p);
      }
      std::vector<double> first;
      first.reserve(queries.size());
      for (const auto& [now, p] : queries) {
        const double pred = noisy->PredictNext(now, p);
        WMLP_CHECK_MSG(!std::isnan(pred), "noisy prediction is NaN");
        WMLP_CHECK_MSG(pred > static_cast<double>(now),
                       "noisy prediction not after now");
        first.push_back(pred);
      }
      // Reverse order on the twin: per-query hashing promises the schedule
      // is invisible.
      for (size_t j = queries.size(); j-- > 0;) {
        const double pred = twin->PredictNext(queries[j].first,
                                              queries[j].second);
        WMLP_CHECK_MSG(pred == first[j],
                       "noisy prediction varied with query order");
      }
    }
  }

  // --- 3: structured options vs the registry string parser --------------
  predict::PredictiveOptions options;
  options.lambda = in.NextDouble();
  options.ewma_alpha = in.NextDouble();
  options.horizon = in.Next64();
  options.noise = kind;
  options.eta = noise.eta;

  std::string error;
  PolicyPtr direct = predict::MakePredictivePolicy(seed, options, nullptr,
                                                   &error);
  const bool must_reject = PredictiveMustReject(options);
  if (must_reject) {
    WMLP_CHECK_MSG(direct == nullptr, "invalid predictive options accepted");
    WMLP_CHECK_MSG(!error.empty(),
                   "predictive reject without an error message");
  } else {
    WMLP_CHECK_MSG(direct != nullptr, "valid predictive options rejected");
  }

  // Round-trip through the registry string surface. The horizon key is
  // only emitted when its decimal form survives the parser's bounded-
  // integral gate; otherwise the config is rewritten to horizon = 0 and
  // the expectation recomputed against that.
  predict::PredictiveOptions via_string = options;
  std::string spec = "predictive:lambda=" + FormatDouble(options.lambda) +
                     ",alpha=" + FormatDouble(options.ewma_alpha) +
                     ",eta=" + FormatDouble(options.eta) +
                     ",noise=" + predict::NoiseKindName(kind);
  if (options.horizon >= 0 && options.horizon <= 1000000000) {
    spec += ",horizon=" + std::to_string(options.horizon);
  } else {
    via_string.horizon = 0;
  }
  PolicyPtr parsed = MakePolicyByName(spec, seed);
  if (PredictiveMustReject(via_string)) {
    WMLP_CHECK_MSG(parsed == nullptr,
                   "registry accepted an out-of-range predictive spec");
  } else {
    WMLP_CHECK_MSG(parsed != nullptr,
                   "registry rejected a valid predictive spec");
  }

  if (parsed == nullptr) return 0;

  // --- 4: accepted configs serve deterministically ----------------------
  Trace trace{std::move(inst), {}};
  while (!in.done() && trace.length() < kMaxRequests) {
    Request r;
    r.page = static_cast<PageId>(in.Next() % n);
    r.level = static_cast<Level>(1 + in.Next() % ell);
    trace.requests.push_back(r);
  }

  PolicyPtr rerun = MakePolicyByName(spec, seed);
  SimResult a, b;
  {
    TraceSource source(trace);
    Engine engine(source, *parsed);
    a = engine.Run();
  }
  {
    TraceSource source(trace);
    Engine engine(source, *rerun);
    b = engine.Run();
  }
  WMLP_CHECK_MSG(a.eviction_cost == b.eviction_cost,
                 "predictive policy run is not deterministic");
  WMLP_CHECK_MSG(a.hits == b.hits && a.misses == b.misses &&
                     a.evictions == b.evictions && a.fetches == b.fetches,
                 "predictive policy counters are not deterministic");
  return 0;
}
