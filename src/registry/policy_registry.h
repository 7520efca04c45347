// Name-based policy construction: one place that knows every online policy
// in the library. Used by the CLI tools and the experiment binaries.
#pragma once

#include <string>
#include <vector>

#include "predict/predictive_policy.h"
#include "sim/policy.h"

namespace wmlp {

// Known names: lru, fifo, clock, sieve, 2q, lfu, random, marking, landlord,
// waterfill, randomized (the paper's algorithm), predictive (the
// prediction-augmented combiner over an online EWMA predictor) and
// unknown-weights (Landlord over learned weight estimates; §14). The two
// tunable policies also take a parameter list:
//   randomized:beta=<v>,eta=<v>,delta=<v>,
//              engine=<multiplicative|reference|linear>
//   predictive:lambda=<v>,alpha=<v>,noise=<none|lognormal|swap|stale>,
//              eta=<v>,horizon=<v>
// Both lists share one strict grammar: keys in any order, each at most
// once, no empty item, and every number finite and in range with nothing
// around it. Returns nullptr for an unknown name or a malformed spec.
PolicyPtr MakePolicyByName(const std::string& name, uint64_t seed);

// The combiner options of "predictive" or "predictive:k=v,...", read by
// the parser MakePolicyByName uses, for a caller that supplies its own
// predictor. Returns false for any other name or a malformed list; the
// ranges are MakePredictivePolicy's to check.
bool ParsePredictiveSpec(const std::string& name,
                         predict::PredictiveOptions* options);

// Every plain policy name, and the spec forms of the randomized policy's
// other two engines, so a loop over this list covers all three.
std::vector<std::string> KnownPolicyNames();

}  // namespace wmlp
