// Name-based policy construction: one place that knows every online policy
// in the library. Used by the CLI tools and the experiment binaries.
#pragma once

#include <string>
#include <vector>

#include "sim/policy.h"

namespace wmlp {

// Known names: lru, fifo, clock, sieve, 2q, lfu, random, marking, landlord,
// waterfill, fractional-rounded (alias: randomized),
// fractional-rounded-linear (the Theta(k) linear engine under the same
// rounding), fractional-rounded-reference, predictive (the
// prediction-augmented combiner over an online EWMA predictor) and
// unknown-weights (Landlord over learned weight estimates; §14), plus
// parameterized forms
// "randomized:beta=<v>,eta=<v>,delta=<v>,engine=<multiplicative|linear>"
// and "predictive:lambda=<v>,alpha=<v>,noise=<none|lognormal|swap|stale>,
// eta=<v>,horizon=<v>" (strict: malformed or out-of-range values yield
// nullptr).
// Returns nullptr for unknown names.
PolicyPtr MakePolicyByName(const std::string& name, uint64_t seed);

// All plain policy names (no parameterized forms).
std::vector<std::string> KnownPolicyNames();

}  // namespace wmlp
