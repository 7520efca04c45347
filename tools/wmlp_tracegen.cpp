// Generate a synthetic trace and write it to the wmlp text format.
//
// Usage:
//   wmlp_tracegen --kind zipf --n 64 --k 8 --ell 2 --length 10000
//       --alpha 0.8 --weights geometric --ratio 8 --mix uniform
//       --seed 1 --out trace.wmlp
//
// Kinds: zipf, uniform, loop (--loop-size), phases (--ws-size,
// --phase-len), scan (--scan-len, --scan-prob), markov (--stay, --window),
// wadv (weighted adversary; ignores --n/--ell), multigran (--chunks,
// --sectors, --chunk-prob; ignores --n/--ell).
// Weights: uniform, geometric, zipfpages, loguniform.
// Mix: lowest, uniform, rw:<write_ratio> (in [0, 1]), geo:<decay> (> 0).
// Any other flag, a repeated flag or a stray argument exits 2.
#include <iostream>

#include "tool_util.h"
#include "trace/generators.h"
#include "trace/trace.h"
#include "trace/trace_io.h"

namespace wmlp {
namespace {

WeightModel ParseWeights(const std::string& s) {
  if (s == "uniform") return WeightModel::kUniform;
  if (s == "geometric") return WeightModel::kGeometricLevels;
  if (s == "zipfpages") return WeightModel::kZipfPages;
  if (s == "loguniform") return WeightModel::kLogUniform;
  tools::Die("unknown --weights '" + s + "'");
}

// The x of --mix rw:<x> / geo:<x>, read by the flags' number rule.
double MixValue(const std::string& s, size_t prefix) {
  double x = 0.0;
  if (!cli::ParseNumber(s.substr(prefix), &x)) {
    tools::Die("--mix " + s.substr(0, prefix) + "<x> expects a number, got '" +
               s + "'");
  }
  return x;
}

LevelMix ParseMix(const std::string& s, int32_t ell) {
  if (s == "lowest") return LevelMix::AllLowest(ell);
  if (s == "uniform") return LevelMix::UniformMix(ell);
  if (s.rfind("rw:", 0) == 0) {
    if (ell != 2) tools::Die("--mix rw requires --ell 2");
    const double ratio = MixValue(s, 3);
    if (ratio < 0.0 || ratio > 1.0) {
      tools::Die("--mix rw:<x> must be in [0, 1], got '" + s + "'");
    }
    return LevelMix::ReadWrite(ratio);
  }
  if (s.rfind("geo:", 0) == 0) {
    const double decay = MixValue(s, 4);
    if (decay <= 0.0) {
      tools::Die("--mix geo:<x> must be > 0, got '" + s + "'");
    }
    return LevelMix::Geometric(ell, decay);
  }
  tools::Die("unknown --mix '" + s + "'");
}

}  // namespace
}  // namespace wmlp

int main(int argc, char** argv) {
  using namespace wmlp;
  const tools::Flags flags(
      argc, argv,
      {.values = {"kind", "n", "k", "ell", "length", "alpha", "ratio", "seed",
                  "out", "weights", "mix", "loop-size", "ws-size",
                  "phase-len", "scan-len", "scan-prob", "stay", "window",
                  "chunks", "sectors", "chunk-prob"}});
  const std::string kind = flags.GetString("kind", "zipf");
  // Every numeric flag is range-checked (tool_util.h convention): the
  // upper bounds double as the int32 narrowing guard for the casts below.
  const int32_t n =
      static_cast<int32_t>(flags.GetIntInRange("n", 64, 1, 1 << 30));
  const int32_t k =
      static_cast<int32_t>(flags.GetIntInRange("k", 8, 1, 1 << 30));
  const int32_t ell =
      static_cast<int32_t>(flags.GetIntInRange("ell", 1, 1, 64));
  const int64_t length =
      flags.GetIntInRange("length", 10000, 0, int64_t{1} << 40);
  const double alpha = flags.GetDoubleInRange("alpha", 0.8, 1e-6, 1e6);
  const double ratio = flags.GetDoubleInRange("ratio", 8.0, 1e-6, 1e9);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const std::string out = flags.GetString("out");
  if (out.empty()) tools::Die("--out is required");

  const WeightModel wm = ParseWeights(flags.GetString("weights", "geometric"));
  const LevelMix mix = ParseMix(flags.GetString("mix", "lowest"), ell);
  Instance inst(n, k, ell, MakeWeights(n, ell, wm, ratio, seed));

  Trace trace{Instance::Uniform(1, 1), {}};
  if (kind == "zipf") {
    trace = GenZipf(inst, length, alpha, mix, seed + 1);
  } else if (kind == "uniform") {
    trace = GenUniform(inst, length, mix, seed + 1);
  } else if (kind == "loop") {
    trace = GenLoop(
        inst, length,
        static_cast<int32_t>(
            flags.GetIntInRange("loop-size", k + 1, 1, 1 << 30)),
        mix);
  } else if (kind == "phases") {
    trace = GenPhases(
        inst, length,
        static_cast<int32_t>(
            flags.GetIntInRange("ws-size", k + 4, 1, 1 << 30)),
        flags.GetIntInRange("phase-len", 500, 1, int64_t{1} << 40), alpha,
        mix, seed + 1);
  } else if (kind == "scan") {
    trace = GenScanMix(
        inst, length, alpha,
        static_cast<int32_t>(
            flags.GetIntInRange("scan-len", 32, 1, 1 << 30)),
        flags.GetDoubleInRange("scan-prob", 0.02, 0.0, 1.0), mix,
        seed + 1);
  } else if (kind == "markov") {
    trace = GenMarkov(
        inst, length, flags.GetDoubleInRange("stay", 0.7, 0.0, 1.0),
        static_cast<int32_t>(
            flags.GetIntInRange("window", 16, 1, 1 << 30)),
        alpha, mix, seed + 1);
  } else if (kind == "wadv") {
    trace = GenWeightedAdversary(k, length, ratio, seed + 1);
  } else if (kind == "multigran") {
    trace = GenMultiGranularity(
        static_cast<int32_t>(
            flags.GetIntInRange("chunks", 32, 1, 1 << 20)),
        static_cast<int32_t>(
            flags.GetIntInRange("sectors", 8, 1, 1 << 20)),
        k, length, flags.GetDoubleInRange("chunk-prob", 0.15, 0.0, 1.0),
        alpha, seed + 1);
  } else {
    tools::Die("unknown --kind '" + kind + "'");
  }

  if (!WriteTraceFile(trace, out)) tools::Die("cannot write " + out);
  const TraceStats stats = ComputeStats(trace);
  std::cout << "wrote " << out << ": " << trace.instance.DebugString()
            << ", T=" << stats.length << ", distinct pages "
            << stats.distinct_pages << ", mean level "
            << stats.mean_level << "\n";
  return 0;
}
