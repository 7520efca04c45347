// Batch-size sweep over the push-mode engine: ns/request and
// allocs/request for StepBatch-driven serving as the batch size grows,
// per policy. JSON rows in the bench_perf_suite schema ("batch<b>-<policy>"
// bench names) so run_benchmarks.sh merges them into BENCH_perf.json.
//
// What the sweep shows (EXPERIMENTS.md E17): batching amortizes the
// per-call overhead — observer batch bookkeeping, loop setup — but by the
// bitwise-equivalence contract it cannot change any cost field. The bench
// enforces that contract on every run: per policy, every batch size's
// eviction cost must be bitwise equal to the batch=1 run, or it aborts.
// The allocs/request column certifies the other half of the contract
// (docs/ARCHITECTURE.md §11): the steady-state batched serve path does
// not allocate, at any batch size.
//
// Flags: --quick (smaller trace), --json <path>, --git-sha <sha>,
// --reps <r> (timed repetitions per cell, best-of; default 3).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_hook.h"
#include "bench_util.h"
#include "engine/engine.h"
#include "harness/table.h"
#include "registry/policy_registry.h"
#include "trace/generators.h"
#include "util/check.h"

namespace wmlp {
namespace {

struct SuiteArgs {
  bool quick = false;
  std::string json_path;
  std::string git_sha = "unknown";
  int32_t reps = 3;
};

SuiteArgs ParseArgs(int argc, char** argv) {
  SuiteArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      args.quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      args.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--git-sha") == 0 && i + 1 < argc) {
      args.git_sha = argv[++i];
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      args.reps = std::max(1, std::atoi(argv[++i]));
    } else {
      std::cerr << "usage: bench_batch_sweep [--quick] [--json path] "
                   "[--git-sha sha] [--reps r]\n";
      std::exit(2);
    }
  }
  return args;
}

struct Cell {
  std::string bench;  // "batch<b>-<policy>"
  int32_t n = 0;
  int32_t k = 0;
  int32_t ell = 0;
  int64_t requests = 0;
  double ns_per_request = 0.0;
  double allocs_per_request = -1.0;  // -1 when counting is compiled out
  double cost = 0.0;                 // eviction cost (deterministic)
};

using Clock = std::chrono::steady_clock;

// One full run: fresh policy, push-mode engine, the whole trace fed as
// batch-sized StepBatch slices. Returns the eviction cost.
double RunBatched(const Trace& trace, const std::string& policy_name,
                  int64_t batch) {
  PolicyPtr policy = MakePolicyByName(policy_name, 3);
  Engine engine(trace.instance, *policy);
  const int64_t total = trace.length();
  BatchResult br;
  for (int64_t i = 0; i < total; i += batch) {
    const int64_t m = std::min(batch, total - i);
    engine.StepBatch(
        std::span<const Request>(trace.requests.data() + i,
                                 static_cast<size_t>(m)),
        br);
  }
  return engine.result().eviction_cost;
}

std::string FmtG(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void WriteJson(const SuiteArgs& args, const std::vector<Cell>& cells,
               const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "error: cannot write " << path << "\n";
    std::exit(1);
  }
  os << "{\n";
  os << "  \"schema\": \"wmlp-bench-perf-v1\",\n";
  os << "  \"git_sha\": \"" << JsonEscape(args.git_sha) << "\",\n";
  bench::WriteJsonMetadata(os);
#ifdef NDEBUG
  os << "  \"optimized\": true,\n";
#else
  os << "  \"optimized\": false,\n";
#endif
  os << "  \"quick\": " << (args.quick ? "true" : "false") << ",\n";
  os << "  \"reps\": " << args.reps << ",\n";
  os << "  \"weight_model\": \"geometric-levels\",\n";
  os << "  \"results\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    os << "    {\"bench\": \"" << c.bench << "\", \"n\": " << c.n
       << ", \"k\": " << c.k << ", \"ell\": " << c.ell
       << ", \"requests\": " << c.requests
       << ", \"ns_per_request\": " << FmtG(c.ns_per_request)
       << ", \"allocs_per_request\": " << FmtG(c.allocs_per_request)
       << ", \"cost\": " << FmtG(c.cost) << "}"
       << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
}

int Main(int argc, char** argv) {
  const SuiteArgs args = ParseArgs(argc, argv);
#ifndef NDEBUG
  std::cerr << "warning: bench_batch_sweep built without optimization; "
               "numbers are not comparable to the checked-in baseline\n";
#endif

  const int32_t n = 4096;
  const int64_t requests = args.quick ? 20'000 : 200'000;
  Instance inst(n, n / 4, 2,
                MakeWeights(n, 2, WeightModel::kGeometricLevels, 4.0, 7));
  const Trace trace =
      GenZipf(std::move(inst), requests, 0.8, LevelMix::UniformMix(2), 8);

  const std::vector<int64_t> batches = {1, 8, 64, 512, 4096};
  // lru and landlord are classic baselines next to the paper's waterfill
  // path; the allocs gate holds all three to zero steady-state allocs.
  const std::vector<std::string> policies = {"lru", "landlord", "waterfill"};

  std::vector<Cell> cells;
  Table table({"policy", "batch", "ns/req", "Mreq/s", "allocs/req"});
  for (const std::string& policy : policies) {
    double base_cost = 0.0;  // batch=1 reference for the bitwise cross-check
    for (const int64_t batch : batches) {
      Cell cell;
      cell.bench = "batch" + std::to_string(batch) + "-" + policy;
      cell.n = n;
      cell.k = static_cast<int32_t>(trace.instance.cache_size());
      cell.ell = 2;
      cell.requests = requests;
      double best_ns = 0.0;
      int64_t best_allocs = 0;
      for (int32_t rep = 0; rep < args.reps; ++rep) {
        const int64_t allocs_before = bench::AllocCount();
        const auto start = Clock::now();
        cell.cost = RunBatched(trace, policy, batch);
        const double ns = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - start)
                .count());
        const int64_t allocs = bench::AllocCount() - allocs_before;
        if (rep == 0 || ns < best_ns) best_ns = ns;
        if (rep == 0 || allocs < best_allocs) best_allocs = allocs;
      }
      cell.ns_per_request = best_ns / static_cast<double>(requests);
      if (bench::AllocCountingEnabled()) {
        cell.allocs_per_request = static_cast<double>(best_allocs) /
                                  static_cast<double>(requests);
      }
      if (batch == 1) base_cost = cell.cost;
      WMLP_CHECK_MSG(cell.cost == base_cost,
                     "eviction cost varied with batch size for "
                         << policy << ": batching contract violated");
      cells.push_back(cell);
      table.AddRow({policy, FmtInt(batch), Fmt(cell.ns_per_request, 1),
                    Fmt(1000.0 / std::max(cell.ns_per_request, 1e-9), 3),
                    cell.allocs_per_request < 0.0
                        ? std::string("n/a")
                        : Fmt(cell.allocs_per_request, 4)});
      std::cout << "measured policy=" << policy << " batch=" << batch << "\n";
    }
  }

  std::cout << "\n== perf: push-mode batch sweep (n=" << n << ", " << requests
            << " requests) ==\n";
  table.Print(std::cout);

  if (!args.json_path.empty()) {
    WriteJson(args, cells, args.json_path);
    std::cout << "wrote " << args.json_path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace wmlp

int main(int argc, char** argv) { return wmlp::Main(argc, argv); }
