// Compute offline optimum bounds for a saved trace.
//
// Usage: wmlp_opt --trace t.wmlp [--dp-limit 300000]; anything else exits 2.
#include <iostream>

#include "harness/table.h"
#include "offline/bounds.h"
#include "offline/heuristics.h"
#include "offline/weighted_opt.h"
#include "tool_util.h"
#include "trace/trace_io.h"

int main(int argc, char** argv) {
  using namespace wmlp;
  const tools::Flags flags(argc, argv, {.values = {"trace", "dp-limit"}});
  const std::string path = flags.GetString("trace");
  if (path.empty()) tools::Die("--trace is required");

  std::string err;
  const auto trace = ReadTraceFile(path, &err);
  if (!trace) tools::Die(err);

  BoundsOptions opts;
  opts.dp_state_limit = flags.GetIntInRange(
      "dp-limit", opts.dp_state_limit, 1, int64_t{1} << 40);
  const OfflineBounds b = ComputeOfflineBounds(*trace, opts);

  std::cout << trace->instance.DebugString() << ", T=" << trace->length()
            << "\n";
  if (b.exact) {
    std::cout << "exact offline optimum: " << Fmt(b.lower, 4) << "\n";
  } else {
    std::cout << "offline optimum in [" << Fmt(b.lower, 4) << ", "
              << Fmt(b.upper, 4) << "]\n";
    std::cout << "  lower: relaxed flow OPT at w(p, ell)\n";
    std::cout << "  upper: best offline heuristic (farthest-next-use "
              << Fmt(OfflineFarthestNextUse(*trace), 2)
              << ", weighted-farthest "
              << Fmt(OfflineWeightedFarthest(*trace), 2) << ")\n";
  }
  return 0;
}
