#include "registry/policy_registry.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "baselines/clock.h"
#include "baselines/fifo.h"
#include "baselines/landlord.h"
#include "baselines/sieve.h"
#include "baselines/two_q.h"
#include "baselines/lfu.h"
#include "baselines/lru.h"
#include "baselines/marking.h"
#include "baselines/random_eviction.h"
#include "core/randomized.h"
#include "core/waterfill.h"
#include "predict/predictive_policy.h"
#include "predict/unknown_weights.h"

namespace wmlp {

namespace {

// Parses one "key=value" of a randomized spec into the options.
bool ParseRandomizedParam(const std::string& kv, RandomizedOptions* options) {
  const size_t eq = kv.find('=');
  if (eq == std::string::npos) return false;
  const std::string key = kv.substr(0, eq);
  const std::string raw = kv.substr(eq + 1);
  if (key == "engine") {
    if (raw == "multiplicative") {
      options->engine = FractionalEngine::kMultiplicative;
    } else if (raw == "reference") {
      options->engine = FractionalEngine::kReference;
    } else if (raw == "linear") {
      options->engine = FractionalEngine::kLinear;
    } else {
      return false;
    }
    return true;
  }
  // strtod would skip leading whitespace and stop at an embedded NUL; a
  // strict value has neither.
  if (raw.empty() || std::isspace(static_cast<unsigned char>(raw[0]))) {
    return false;
  }
  char* end = nullptr;
  const double value = std::strtod(raw.c_str(), &end);
  if (end != raw.c_str() + raw.size() || !std::isfinite(value)) return false;
  if (key == "beta") {
    if (value < 0.0) return false;
    options->beta = value;
  } else if (key == "eta") {
    if (value < 0.0 || value > 1.0) return false;
    options->eta = value;
  } else if (key == "delta") {
    // 0 picks 1/(4k), negative disables the grid, and an explicit grid
    // is a cell width in [1e-9, 1].
    if (value > 1.0 || (value > 0.0 && value < 1e-9)) return false;
    options->delta = value;
  } else {
    return false;
  }
  return true;
}

// Parses "k1=v1,k2=v2" (keys beta, eta, delta, engine; an empty list keeps
// the defaults) into randomized-policy options. Returns false on an empty
// item, an unknown key, a malformed or non-finite number, an out-of-range
// value or an unknown engine: a typo is rejected, never reinterpreted.
bool ParseRandomizedParams(const std::string& params,
                           RandomizedOptions* options) {
  if (params.empty()) return true;
  for (size_t begin = 0;;) {
    const size_t comma = params.find(',', begin);
    const size_t len = comma == std::string::npos ? std::string::npos
                                                  : comma - begin;
    if (!ParseRandomizedParam(params.substr(begin, len), options)) {
      return false;
    }
    if (comma == std::string::npos) return true;
    begin = comma + 1;
  }
}

// Parses "k1=v1,k2=v2" into predictive-combiner options. Returns false on a
// malformed or out-of-range value.
bool ParsePredictiveParams(const std::string& params,
                           predict::PredictiveOptions* options) {
  std::istringstream iss(params);
  std::string kv;
  while (std::getline(iss, kv, ',')) {
    const size_t eq = kv.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = kv.substr(0, eq);
    const std::string raw = kv.substr(eq + 1);
    if (key == "noise") {
      if (!predict::ParseNoiseKind(raw, &options->noise)) return false;
      continue;
    }
    char* end = nullptr;
    const double value = std::strtod(raw.c_str(), &end);
    if (end == raw.c_str() || *end != '\0') return false;
    if (key == "lambda") {
      options->lambda = value;
    } else if (key == "alpha") {
      options->ewma_alpha = value;
    } else if (key == "eta") {
      options->eta = value;
    } else if (key == "horizon") {
      // Bounded integral values only: an unchecked cast of e.g. 1e300 to
      // int64 is undefined, and negative/fractional horizons are rejected
      // by MakePredictivePolicy anyway — fail fast here instead.
      if (!(value >= 0.0 && value <= 1e15) || value != std::floor(value)) {
        return false;
      }
      options->horizon = static_cast<int64_t>(value);
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

PolicyPtr MakePolicyByName(const std::string& name, uint64_t seed) {
  if (name == "lru") return std::make_unique<LruPolicy>();
  if (name == "fifo") return std::make_unique<FifoPolicy>();
  if (name == "clock") return std::make_unique<ClockPolicy>();
  if (name == "sieve") return std::make_unique<SievePolicy>();
  if (name == "2q") return std::make_unique<TwoQPolicy>();
  if (name == "lfu") return std::make_unique<LfuPolicy>();
  if (name == "random") return std::make_unique<RandomEvictionPolicy>(seed);
  if (name == "marking") return std::make_unique<MarkingPolicy>(seed);
  if (name == "landlord") return std::make_unique<LandlordPolicy>();
  if (name == "waterfill") return std::make_unique<WaterfillPolicy>();
  if (name == "randomized" || name == "fractional-rounded") {
    return MakeRandomizedPolicy(seed);
  }
  if (name == "fractional-rounded-linear") {
    RandomizedOptions options;
    options.engine = FractionalEngine::kLinear;
    return MakeRandomizedPolicy(seed, options);
  }
  // The reference (O(n * ell)-per-step) fractional engine under the same
  // rounding: the cross-check oracle for the output-sensitive default.
  if (name == "fractional-rounded-reference") {
    RandomizedOptions options;
    options.engine = FractionalEngine::kReference;
    return MakeRandomizedPolicy(seed, options);
  }
  if (name == "unknown-weights") {
    return std::make_unique<predict::UnknownWeightsPolicy>();
  }
  if (name == "predictive") {
    return predict::MakePredictivePolicy(seed, predict::PredictiveOptions());
  }
  constexpr char kPredictivePrefix[] = "predictive:";
  if (name.rfind(kPredictivePrefix, 0) == 0) {
    predict::PredictiveOptions options;
    if (!ParsePredictiveParams(name.substr(sizeof(kPredictivePrefix) - 1),
                               &options)) {
      return nullptr;
    }
    // MakePredictivePolicy re-validates ranges and returns nullptr itself
    // on out-of-range lambda/alpha/eta/horizon.
    return predict::MakePredictivePolicy(seed, options);
  }
  constexpr char kPrefix[] = "randomized:";
  if (name.rfind(kPrefix, 0) == 0) {
    RandomizedOptions options;
    if (!ParseRandomizedParams(name.substr(sizeof(kPrefix) - 1), &options)) {
      return nullptr;
    }
    return MakeRandomizedPolicy(seed, options);
  }
  return nullptr;
}

std::vector<std::string> KnownPolicyNames() {
  return {"lru",        "fifo",     "clock",
          "sieve",      "2q",       "lfu",
          "random",     "marking",  "landlord",
          "waterfill",  "randomized", "fractional-rounded-linear",
          "fractional-rounded-reference", "predictive", "unknown-weights"};
}

}  // namespace wmlp
