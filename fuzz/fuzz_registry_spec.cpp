// libFuzzer target: the registry's strict "randomized:k=v" parser.
//
// The input bytes are the parameter list after "randomized:". Checks:
//   1. MakePolicyByName never crashes, whatever the bytes (embedded NULs,
//      stray commas, non-numeric or non-finite values included).
//   2. It accepts exactly the specs the documented grammar admits, read
//      here independently: an empty list, or comma-separated key=value
//      items with engine in {multiplicative, reference, linear}, or beta
//      (finite, >= 0), eta (in [0, 1]) or delta (<= 1; 0, negative, or at
//      least 1e-9) given as a complete strtod number without leading
//      whitespace, each key at most once. Anything else — unknown or
//      repeated keys, empty items, typos — is rejected, never
//      reinterpreted.
//   3. An accepted spec builds a policy that serves a small multi-level
//      trace, and two runs with the same seed are bitwise identical. The
//      trace has per-page weights, which are not powers of two, so the
//      policy's fractional stack runs on a class-ceiling copy.
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "registry/policy_registry.h"
#include "sim/simulator.h"
#include "trace/generators.h"
#include "util/check.h"

using namespace wmlp;

namespace {

bool ValidNumber(const std::string& raw, double* value) {
  if (raw.empty() || std::isspace(static_cast<unsigned char>(raw[0]))) {
    return false;
  }
  if (raw.find('\0') != std::string::npos) return false;
  char* end = nullptr;
  *value = std::strtod(raw.c_str(), &end);
  return *end == '\0' && end != raw.c_str() && std::isfinite(*value);
}

bool ValidItem(const std::string& item) {
  const size_t eq = item.find('=');
  if (eq == std::string::npos) return false;
  const std::string key = item.substr(0, eq);
  const std::string raw = item.substr(eq + 1);
  if (key == "engine") {
    return raw == "multiplicative" || raw == "reference" || raw == "linear";
  }
  double v = 0.0;
  if (!ValidNumber(raw, &v)) return false;
  if (key == "beta") return v >= 0.0;
  if (key == "eta") return v >= 0.0 && v <= 1.0;
  if (key == "delta") return v <= 1.0 && (v <= 0.0 || v >= 1e-9);
  return false;
}

bool GrammarAccepts(const std::string& params) {
  if (params.empty()) return true;
  std::vector<std::string> items(1);
  for (const char c : params) {
    if (c == ',') {
      items.emplace_back();
    } else {
      items.back().push_back(c);
    }
  }
  std::set<std::string> keys;
  for (const std::string& item : items) {
    if (!ValidItem(item)) return false;
    if (!keys.insert(item.substr(0, item.find('='))).second) return false;
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > 256) return 0;  // specs are short; keep each input cheap
  const std::string params(reinterpret_cast<const char*>(data), size);
  const PolicyPtr policy = MakePolicyByName("randomized:" + params, 7);
  const bool accepted = policy != nullptr;
  WMLP_CHECK_MSG(accepted == GrammarAccepts(params),
                 "randomized spec \"" << params << "\" "
                     << (accepted ? "accepted" : "rejected")
                     << " against the documented grammar");
  if (!accepted) return 0;
  Instance inst(10, 3, 2,
                MakeWeights(10, 2, WeightModel::kLogUniform, 16.0, 1));
  const Trace trace = GenZipf(inst, 60, 0.7, LevelMix::UniformMix(2), 2);
  const SimResult first = Simulate(trace, *policy);
  const PolicyPtr again = MakePolicyByName("randomized:" + params, 7);
  const SimResult second = Simulate(trace, *again);
  WMLP_CHECK_MSG(first.eviction_cost == second.eviction_cost &&
                     first.evictions == second.evictions,
                 "randomized spec \"" << params << "\" is not deterministic");
  return 0;
}
