// Shared helpers for the bench binaries: the argument parser and table
// emitter of the experiment binaries (bench_e*), and the one timing core
// every bench number goes through (BestOf).
//
// Experiment flags (util/flags.h: anything else, a repeat, or --csv
// without a value exits 2):
//   --quick        shrink workloads (CI smoke)
//   --csv <dir>    also write each table as <dir>/<experiment>_<name>.csv
#pragma once

#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>

#include "alloc_hook.h"
#include "harness/table.h"
#include "util/flags.h"

namespace wmlp::bench {

struct BenchArgs {
  bool quick = false;
  std::string csv_dir;

  static BenchArgs Parse(int argc, char** argv) {
    const cli::Flags flags(argc, argv,
                           {.values = {"csv"}, .switches = {"quick"}});
    return {flags.Has("quick"), flags.GetString("csv")};
  }

  // Scales a workload size down in quick mode.
  int64_t Scale(int64_t full, int64_t quick_value) const {
    return quick ? quick_value : full;
  }
};

// One timed measurement: the fastest rep, the fewest heap allocations over
// the reps (-1 when counting is compiled out, in debug builds), and the
// callable's return value — the cell's deterministic cost.
struct Timing {
  double best_ns = 0.0;
  int64_t allocs = -1;
  double cost = 0.0;
};

// The minimum number of reps BestOf runs; the perf JSON header reports it.
inline constexpr int32_t kMinReps = 3;

// Times `run` (a callable returning double): at least kMinReps reps, then
// more until 50 ms have been measured, capped at 2000 reps. Without the
// floor a ~30 us cell jitters well past the 25% regression gate from
// scheduling noise alone. Binaries that call it link bench/alloc_hook.cpp.
template <typename Fn>
Timing BestOf(Fn&& run) {
  constexpr double kMinMeasuredNs = 5e7;
  constexpr int32_t kMaxReps = 2000;
  using Clock = std::chrono::steady_clock;
  Timing timing;
  double total_ns = 0.0;
  for (int32_t rep = 0;
       rep < kMinReps || (total_ns < kMinMeasuredNs && rep < kMaxReps);
       ++rep) {
    const int64_t allocs_before = AllocCount();
    const auto start = Clock::now();
    timing.cost = run();
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    const int64_t allocs = AllocCount() - allocs_before;
    total_ns += ns;
    if (rep == 0 || ns < timing.best_ns) timing.best_ns = ns;
    // Deterministic workloads allocate the same count every rep; the min
    // guards against a stray lazy-init allocation in the first one.
    if (rep == 0 || allocs < timing.allocs) timing.allocs = allocs;
  }
  if (!AllocCountingEnabled()) timing.allocs = -1;
  return timing;
}

inline void EmitTable(const BenchArgs& args, const std::string& experiment,
                      const std::string& name, const Table& table) {
  std::cout << "\n== " << experiment << ": " << name << " ==\n";
  table.Print(std::cout);
  if (!args.csv_dir.empty()) {
    const std::string path =
        args.csv_dir + "/" + experiment + "_" + name + ".csv";
    if (!table.WriteCsvFile(path)) {
      std::cerr << "warning: cannot write " << path << "\n";
    }
  }
}

}  // namespace wmlp::bench
