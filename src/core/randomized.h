// The combined O(log^2 k)-competitive randomized algorithm
// (Theorems 1.2 / 1.5): fractional multiplicative update (Section 4.2)
// -> Lemma 4.5 discretization -> distribution-free rounding (Section 4.3).
#pragma once

#include "core/discretize.h"
#include "core/fractional.h"
#include "core/rounding_multilevel.h"
#include "sim/policy.h"

namespace wmlp {

// Which fractional engine feeds the rounding. The rounding is
// distribution-free and engine-agnostic (Section 4.3): kMultiplicative is
// the paper's O(log k) algorithm (the output-sensitive event-heap solver);
// kReference is the same algorithm via the O(n * ell)-per-step reference
// implementation (cross-check oracle, bit-equivalent trajectories up to
// 1e-9); kLinear is the Landlord-style uniform water-filling (Theta(k)
// fractionally, but faster and a valid input).
enum class FractionalEngine { kMultiplicative, kReference, kLinear };

struct RandomizedOptions {
  double eta = 0.0;    // fractional update rate offset; 0 -> 1/k
  double beta = 0.0;   // rounding aggressiveness; 0 -> 4 ln(k + 1)
  double delta = 0.0;  // discretization grid; 0 -> 1/(4k); < 0 -> disabled
  FractionalEngine engine = FractionalEngine::kMultiplicative;
};

// Builds the full randomized online policy. `seed` drives all of its
// random choices; the fractional trajectory itself is deterministic.
PolicyPtr MakeRandomizedPolicy(uint64_t seed,
                               const RandomizedOptions& options = {});

// The fractional stack below the rounding — exactly what the policy runs
// (for experiments that need the fractional cost alone). The policy
// attaches it to ClassCeilingInstance(instance).get(); a caller timing the
// stack alone attaches it the same way.
FractionalPolicyPtr MakeFractionalStack(const RandomizedOptions& options = {});

}  // namespace wmlp
