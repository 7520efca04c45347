#include "registry/policy_registry.h"

#include <cmath>
#include <set>

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
#include "util/flags.h"

namespace wmlp {

namespace {

// The one grammar of a policy spec: `base`, or "base:k1=v1,k2=v2" where
// an empty list keeps every default. Each item goes to `set`, which
// returns false on an unknown key or a bad value. An empty item (so a
// leading, doubled or trailing comma), an item without '=' and a repeated
// key are rejected too: a typo is rejected, never reinterpreted. Returns
// false for a name that is not `base`'s.
template <typename Options>
bool ParseSpec(const std::string& name, const std::string& base,
               bool (*set)(const std::string&, const std::string&, Options*),
               Options* options) {
  if (name == base) return true;
  if (name.rfind(base + ":", 0) != 0) return false;
  const std::string params = name.substr(base.size() + 1);
  std::set<std::string> seen;
  for (size_t begin = 0; !params.empty();) {
    const size_t comma = params.find(',', begin);
    const std::string item = params.substr(
        begin, comma == std::string::npos ? comma : comma - begin);
    const size_t eq = item.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = item.substr(0, eq);
    if (!seen.insert(key).second || !set(key, item.substr(eq + 1), options)) {
      return false;
    }
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return true;
}

bool SetRandomizedParam(const std::string& key, const std::string& raw,
                        RandomizedOptions* options) {
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
  double value = 0.0;
  if (!cli::ParseNumber(raw, &value)) return false;
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

// Ranges of lambda, alpha and eta are MakePredictivePolicy's to check.
bool SetPredictiveParam(const std::string& key, const std::string& raw,
                        predict::PredictiveOptions* options) {
  if (key == "noise") return predict::ParseNoiseKind(raw, &options->noise);
  double value = 0.0;
  if (!cli::ParseNumber(raw, &value)) return false;
  if (key == "lambda") {
    options->lambda = value;
  } else if (key == "alpha") {
    options->ewma_alpha = value;
  } else if (key == "eta") {
    options->eta = value;
  } else if (key == "horizon") {
    // Bounded integral values only: an unchecked cast of e.g. 1e300 to
    // int64 is undefined.
    if (!(value >= 0.0 && value <= 1e15) || value != std::floor(value)) {
      return false;
    }
    options->horizon = static_cast<int64_t>(value);
  } else {
    return false;
  }
  return true;
}

}  // namespace

bool ParsePredictiveSpec(const std::string& name,
                         predict::PredictiveOptions* options) {
  return ParseSpec(name, "predictive", SetPredictiveParam, options);
}

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
  if (name == "unknown-weights") {
    return std::make_unique<predict::UnknownWeightsPolicy>();
  }
  predict::PredictiveOptions predictive;
  if (ParsePredictiveSpec(name, &predictive)) {
    return predict::MakePredictivePolicy(seed, predictive);
  }
  RandomizedOptions randomized;
  if (ParseSpec(name, "randomized", SetRandomizedParam, &randomized)) {
    return MakeRandomizedPolicy(seed, randomized);
  }
  return nullptr;
}

std::vector<std::string> KnownPolicyNames() {
  return {"lru",        "fifo",     "clock",
          "sieve",      "2q",       "lfu",
          "random",     "marking",  "landlord",
          "waterfill",  "randomized", "randomized:engine=linear",
          "randomized:engine=reference", "predictive", "unknown-weights"};
}

}  // namespace wmlp
