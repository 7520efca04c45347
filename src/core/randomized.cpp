#include "core/randomized.h"

#include <utility>

#include "core/fractional_linear.h"
#include "core/fractional_reference.h"

namespace wmlp {

FractionalPolicyPtr MakeFractionalStack(const RandomizedOptions& options) {
  FractionalPolicyPtr frac;
  if (options.engine == FractionalEngine::kLinear) {
    frac = std::make_unique<FractionalLinear>();
  } else if (options.engine == FractionalEngine::kReference) {
    FractionalOptions fopts;
    fopts.eta = options.eta;
    frac = std::make_unique<FractionalMlpReference>(fopts);
  } else {
    FractionalOptions fopts;
    fopts.eta = options.eta;
    frac = std::make_unique<FractionalMlp>(fopts);
  }
  if (options.delta >= 0.0) {
    frac = std::make_unique<DiscretizedFractional>(std::move(frac),
                                                   options.delta);
  }
  return frac;
}

PolicyPtr MakeRandomizedPolicy(uint64_t seed,
                               const RandomizedOptions& options) {
  MultiLevelRoundingOptions ropts;
  ropts.beta = options.beta;
  return std::make_unique<RoundedMultiLevel>(MakeFractionalStack(options),
                                             seed, ropts);
}

}  // namespace wmlp
