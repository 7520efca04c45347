// Perf driver: every wall-clock cell of the repo's perf artifact
// (BENCH_perf.json), measured in one process and written by one writer for
// the paired regression gate (scripts/perf.py), which runs this driver
// built from the parent revision and from the change, alternating, and
// gates every cell on the ratio of their minima. Sections, in run order:
//
//   solver   ns/request across n in {1e3, 1e4, 1e5, 1e6} (quick: {1e3,
//            1e4}) and ell in {1, 2, 4} for
//              - waterfill            (integral policy, registry, engine)
//              - fractional-fast      (FractionalMlp, output-sensitive)
//              - fractional-reference (FractionalMlpReference, O(n*ell)
//                                      per step; skipped, announced, at
//                                      n = 1e6 where it would take minutes)
//              - rounded              (registry "randomized" through the
//                                      engine)                        (E15)
//            plus one rounded-pages cell: "randomized" on per-page weights
//            (n = 4096, k = 256, ell = 2, 20k requests in both grids)
//   serve    the sharded server (src/server/) over a shards x clients grid,
//            "serve-s<S>-c<C>"                                      (E16)
//   batch    push-mode StepBatch over batch sizes per policy,
//            "batch<b>-<policy>"                                    (E17)
//   kernels  every src/kernels entry point and its scalar twin,
//            "kernel-<name>[-scalar]", with GB/s and the fraction of an
//            in-process STREAM-copy baseline, plus the gather-prefetch
//            sweep that pins kernels::kBatchPrefetchDistance
//
// The solver grid runs first, before any section frees a large array:
// such frees move glibc's dynamic mmap threshold, which decides whether
// each solver rep re-faults its per-page arrays at n >= 1e5.
//
// Every cell is timed by bench::BestOf over its whole run — policy
// construction, Attach and the serve loop (for serve-* rows also the
// ServeTrace setup: shard maps, inboxes, threads) — and reports the
// fastest rep's ns/request, the fewest heap allocations per request over
// the reps, and the run's deterministic cost. Two contracts are asserted
// inline, aborting the run on violation: a batch size never changes the
// eviction cost, and the serve cost is equal across client counts with
// shards = 1 equal to the plain engine.
//
// Weights use WeightModel::kGeometricLevels: level-determined weights keep
// the fast solver's weight-group count at G <= ell, so its group kernels
// run their inline small-batch path. The rounded-pages cell covers the
// other regime: per-page kZipfPages weights at ratio 64, on which the
// randomized policy runs its fractional stack on class-ceiling weights,
// one group per weight class (13 there), so the group kernels run their
// out-of-line *BatchLarge bodies. Each cell keeps one regime, so the
// gate's per-cell ratios stay unambiguous. The cache fills after 339 of
// its 20k requests, so nearly all of that cell's run is steady-state
// eviction.
//
// Flags (anything else exits 2):
//   --quick            small grids for CI smoke
//   --json <path>      write BENCH_perf.json-style output
//   --git-sha <sha>    stamp the JSON (scripts/perf.py passes rev-parse)
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/fractional.h"
#include "core/fractional_reference.h"
#include "engine/engine.h"
#include "engine/request_source.h"
#include "harness/table.h"
#include "harness/thread_pool.h"
#include "kernels/kernels.h"
#include "registry/policy_registry.h"
#include "server/server.h"
#include "trace/generators.h"
#include "util/check.h"
#include "util/hot_path.h"
#include "util/rng.h"

namespace wmlp {
namespace {

struct SuiteArgs {
  bool quick = false;
  std::string json_path;
  std::string git_sha = "unknown";
};

SuiteArgs ParseArgs(int argc, char** argv) {
  const cli::Flags flags(
      argc, argv, {.values = {"json", "git-sha"}, .switches = {"quick"}});
  return {flags.Has("quick"), flags.GetString("json"),
          flags.GetString("git-sha", "unknown")};
}

struct Cell {
  std::string bench;
  int32_t n = 0;
  int32_t k = 0;
  int32_t ell = 0;
  int64_t requests = 0;
  double ns_per_request = 0.0;
  // Heap allocations per request over one full rep. Setup is a fixed
  // number of allocations independent of the request count, so a serve
  // loop that allocates per request shows up as O(1) here and anything
  // near zero certifies an allocation-free steady state. -1 when counting
  // is compiled out (debug builds).
  double allocs_per_request = -1.0;
  // lp cost (fractional), eviction cost (integral), or a checksum of the
  // kernel's output.
  double cost = 0.0;
  // Kernel rows only: effective bandwidth and its fraction of the
  // STREAM-copy baseline.
  std::optional<double> gb_per_s;
  std::optional<double> roofline_frac;
};

Cell MakeCell(std::string bench, int32_t n, int32_t k, int32_t ell,
              int64_t requests, const bench::Timing& timing) {
  Cell cell;
  cell.bench = std::move(bench);
  cell.n = n;
  cell.k = k;
  cell.ell = ell;
  cell.requests = requests;
  cell.ns_per_request = timing.best_ns / static_cast<double>(requests);
  if (timing.allocs >= 0) {
    cell.allocs_per_request =
        static_cast<double>(timing.allocs) / static_cast<double>(requests);
  }
  cell.cost = timing.cost;
  return cell;
}

// Times `run` over the whole trace.
template <typename Fn>
Cell TraceCell(std::string bench, const Trace& trace, Fn&& run) {
  return MakeCell(std::move(bench), trace.instance.num_pages(),
                  static_cast<int32_t>(trace.instance.cache_size()),
                  trace.instance.num_levels(), trace.length(),
                  bench::BestOf(run));
}

// Zipf(0.8) over n pages with k = n/4 and geometric level weights.
Trace BuildTrace(int32_t n, int32_t ell, int64_t requests) {
  Instance inst(n, n / 4, ell,
                MakeWeights(n, ell, WeightModel::kGeometricLevels, 4.0, 7));
  return GenZipf(std::move(inst), requests, 0.8,
                 ell == 1 ? LevelMix::AllLowest(1) : LevelMix::UniformMix(ell),
                 8);
}

// servebench's randomized-pages trace shape, seeded like BuildTrace.
Trace BuildPagesTrace(int64_t requests) {
  constexpr int32_t n = 4096;
  Instance inst(n, 256, 2,
                MakeWeights(n, 2, WeightModel::kZipfPages, 64.0, 7));
  return GenZipf(std::move(inst), requests, 0.8, LevelMix::UniformMix(2), 8);
}

double RunEngine(const Trace& trace, const char* policy_name) {
  auto policy = MakePolicyByName(policy_name, 3);
  TraceSource source(trace);
  Engine engine(source, *policy);
  return engine.Run().eviction_cost;
}

// Both solvers are timed through the per-request Serve loop, the call the
// randomized policy's stack makes.
template <typename Solver>
double RunFractional(const Trace& trace) {
  Solver frac;
  frac.Attach(trace.instance);
  for (Time t = 0; t < trace.length(); ++t) {
    frac.Serve(t, trace.requests[static_cast<size_t>(t)]);
  }
  return frac.lp_cost();
}

void PrintTable(const std::string& title, std::span<const Cell> cells) {
  const bool kernel = !cells.empty() && cells.front().gb_per_s.has_value();
  std::vector<std::string> header{"bench", "n", "ell", "requests", "ns/req"};
  header.insert(header.end(), {"Mreq/s", "allocs/req", "cost"});
  if (kernel) header.insert(header.end(), {"GB/s", "roofline"});
  Table table(header);
  for (const Cell& c : cells) {
    std::vector<std::string> row = {
        c.bench,
        FmtInt(c.n),
        FmtInt(c.ell),
        FmtInt(c.requests),
        Fmt(c.ns_per_request, kernel ? 3 : 1),
        Fmt(1000.0 / std::max(c.ns_per_request, 1e-9), 3),
        c.allocs_per_request < 0.0 ? std::string("n/a")
                                   : Fmt(c.allocs_per_request, 4),
        Fmt(c.cost, 2),
    };
    if (kernel) {
      row.push_back(Fmt(c.gb_per_s.value_or(0.0), 2));
      row.push_back(Fmt(c.roofline_frac.value_or(0.0), 3));
    }
    table.AddRow(row);
  }
  std::cout << "\n== perf: " << title << " ==\n";
  table.Print(std::cout);
}

// --- solver ---------------------------------------------------------------

void SolverSection(bool quick, std::vector<Cell>& cells) {
  const size_t first = cells.size();
  const std::vector<int32_t> sizes =
      quick ? std::vector<int32_t>{1000, 10000}
            : std::vector<int32_t>{1000, 10000, 100000, 1000000};
  const std::vector<int32_t> levels = {1, 2, 4};
  const int64_t requests = quick ? 1000 : 4000;

  // Pre-generate every trace in parallel (the only concurrency here; the
  // timed loop below is strictly sequential — concurrent cells would
  // contend and skew ns/request).
  struct Point {
    int32_t n;
    int32_t ell;
  };
  std::vector<Point> points;
  for (int32_t n : sizes) {
    for (int32_t ell : levels) points.push_back({n, ell});
  }
  std::vector<Trace> traces(points.size(),
                            Trace{Instance(1, 1, 1, {{1.0}}), {}});
  ThreadPool pool;
  ParallelFor(pool, static_cast<int64_t>(points.size()), [&](int64_t i) {
    const auto idx = static_cast<size_t>(i);
    traces[idx] = BuildTrace(points[idx].n, points[idx].ell, requests);
  });

  for (size_t i = 0; i < points.size(); ++i) {
    const Trace& trace = traces[i];
    const int32_t n = points[i].n;
    cells.push_back(TraceCell("waterfill", trace, [&] {
      return RunEngine(trace, "waterfill");
    }));
    cells.push_back(TraceCell("fractional-fast", trace, [&] {
      return RunFractional<FractionalMlp>(trace);
    }));
    if (n <= 100000) {
      cells.push_back(TraceCell("fractional-reference", trace, [&] {
        return RunFractional<FractionalMlpReference>(trace);
      }));
    } else {
      std::cout << "note: skipping fractional-reference at n=" << n
                << " (O(n*ell) per step; the cell would dominate runtime)\n";
    }
    cells.push_back(TraceCell("rounded", trace, [&] {
      return RunEngine(trace, "randomized");
    }));
    std::cout << "measured n=" << n << " ell=" << points[i].ell << "\n";
  }
  const Trace pages = BuildPagesTrace(20'000);
  cells.push_back(TraceCell("rounded-pages", pages, [&] {
    return RunEngine(pages, "randomized");
  }));
  std::cout << "measured rounded-pages\n";

  const auto section = std::span<const Cell>(cells).subspan(first);
  PrintTable("solver suite", section);
  // Headline speedup: fast vs reference wherever both ran.
  std::map<std::pair<int32_t, int32_t>, double> fast_ns;
  for (const Cell& c : section) {
    if (c.bench == "fractional-fast") fast_ns[{c.n, c.ell}] = c.ns_per_request;
  }
  for (const Cell& c : section) {
    if (c.bench != "fractional-reference") continue;
    std::cout << "speedup fractional-fast vs reference at n=" << c.n
              << " ell=" << c.ell << ": "
              << Fmt(c.ns_per_request / fast_ns.at({c.n, c.ell}), 2) << "x\n";
  }
}

// --- serve ----------------------------------------------------------------

void ServeSection(bool quick, std::vector<Cell>& cells) {
  const size_t first = cells.size();
  const Trace trace = BuildTrace(4096, 2, quick ? 50'000 : 400'000);
  const std::vector<int32_t> shard_grid =
      quick ? std::vector<int32_t>{1, 4} : std::vector<int32_t>{1, 2, 4, 8};
  const std::vector<int32_t> client_grid =
      quick ? std::vector<int32_t>{1, 2} : std::vector<int32_t>{1, 2, 4};

  // Monolithic reference for the sharding penalty; seeded like shard 0 so
  // the shards = 1 rows reproduce it exactly.
  PolicyPtr mono_policy = MakePolicyByName("waterfill", DeriveSeed(1, 0));
  TraceSource mono_source(trace);
  Engine mono_engine(mono_source, *mono_policy);
  const Cost mono_cost = mono_engine.Run().eviction_cost;

  for (const int32_t shards : shard_grid) {
    for (const int32_t clients : client_grid) {
      ServeOptions options;
      options.shards = shards;
      options.clients = clients;
      options.batch = 256;
      options.policy = "waterfill";
      options.seed = 1;
      cells.push_back(TraceCell(
          "serve-s" + std::to_string(shards) + "-c" + std::to_string(clients),
          trace,
          [&] { return ServeTrace(trace, options).totals.eviction_cost; }));
      const Cost cost = cells.back().cost;
      WMLP_CHECK_MSG(clients == client_grid.front() ||
                         cost == cells[cells.size() - 2].cost,
                     "serve cost varied with client count: determinism "
                     "contract violated");
      WMLP_CHECK_MSG(shards != 1 || cost == mono_cost,
                     "shards=1 diverged from the monolithic engine run");
      std::cout << "measured shards=" << shards << " clients=" << clients
                << "\n";
    }
    std::cout << "sharding penalty at shards=" << shards << ": "
              << Fmt(cells.back().cost / mono_cost, 4) << "\n";
  }
  PrintTable("sharded serve throughput (waterfill)",
             std::span<const Cell>(cells).subspan(first));
  std::cout << "monolithic cost: " << Fmt(mono_cost, 2) << "\n";
}

// --- batch ----------------------------------------------------------------

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
    engine.StepBatch(std::span<const Request>(trace.requests.data() + i,
                                              static_cast<size_t>(m)),
                     br);
  }
  return engine.result().eviction_cost;
}

void BatchSection(bool quick, std::vector<Cell>& cells) {
  const size_t first = cells.size();
  const Trace trace = BuildTrace(4096, 2, quick ? 20'000 : 200'000);
  // lru and landlord are classic baselines next to the paper's waterfill
  // path; the allocs gate holds all three to zero steady-state allocs.
  const std::vector<std::string> policies = {"lru", "landlord", "waterfill"};
  for (const std::string& policy : policies) {
    Cost batch1_cost = 0.0;
    for (const int64_t batch : {1, 8, 64, 512, 4096}) {
      cells.push_back(TraceCell(
          "batch" + std::to_string(batch) + "-" + policy, trace,
          [&] { return RunBatched(trace, policy, batch); }));
      if (batch == 1) batch1_cost = cells.back().cost;
      WMLP_CHECK_MSG(cells.back().cost == batch1_cost,
                     "eviction cost varied with batch size for "
                         << policy << ": batching contract violated");
      std::cout << "measured policy=" << policy << " batch=" << batch << "\n";
    }
  }
  PrintTable("push-mode batch sweep",
             std::span<const Cell>(cells).subspan(first));
}

// --- kernels --------------------------------------------------------------

// Shared input state for the group-aggregate kernels, sized and filled to
// look like the fractional solver's active-group SoA: weights spanning
// six decades, e1 factors in [1, e^8) (the solver rebuilds groups past
// kMaxGroupExp = 8), masses in [0, k].
struct GroupArrays {
  std::vector<double> w;
  std::vector<double> mass;
  std::vector<double> lp;
  std::vector<double> e1;
  std::vector<double> e1_init;
  std::vector<double> cnt;
  std::vector<double> d;  // per-group increments, written by gain-rate

  explicit GroupArrays(int64_t m) {
    const auto sm = static_cast<size_t>(m);
    w.resize(sm);
    mass.resize(sm);
    lp.resize(sm);
    e1.resize(sm);
    e1_init.resize(sm);
    cnt.resize(sm);
    d.resize(sm);
    Rng rng(23);
    for (size_t j = 0; j < sm; ++j) {
      w[j] = 1.0 + 999999.0 * rng.NextDouble() * rng.NextDouble();
      mass[j] = 64.0 * rng.NextDouble();
      lp[j] = 100.0 * rng.NextDouble();
      e1_init[j] = 1.0 + 2979.0 * rng.NextDouble();  // [1, ~e^8)
      cnt[j] = static_cast<double>(rng.NextBounded(4096));
    }
    e1 = e1_init;
  }
};

// 64-byte rows standing in for the per-page state (PageRec, CacheState
// rows) the batched serve front gathers; the index stream is uniform over
// a working set far past LLC so every access is a memory-latency miss
// unless the prefetch hint covers it.
struct alignas(64) GatherRow {
  double vals[8];
};

// Bandwidth accounting is the usual STREAM convention: bytes the kernel
// must move through the memory hierarchy per element (reads + writes,
// including the restore copy for kernels that mutate state in place);
// gathers count a full cache line per access.
template <typename Fn>
Cell KernelCell(std::string bench, int64_t elems, double bytes_per_elem,
                double stream_gbps, Fn&& pass) {
  const bench::Timing timing = bench::BestOf(pass);
  const auto n = static_cast<int32_t>(elems);
  Cell cell = MakeCell(std::move(bench), n, 0, 0, elems, timing);
  // bytes / ns == GB/s exactly (both are 1e9-based).
  cell.gb_per_s =
      bytes_per_elem * static_cast<double>(elems) / timing.best_ns;
  cell.roofline_frac = *cell.gb_per_s / stream_gbps;
  return cell;
}

// STREAM-copy bandwidth of this machine, measured in-process so the
// roofline fractions are self-consistent (same binary, same frequency
// state, same allocator placement). Counts 16 bytes/element (read +
// write), the STREAM convention.
double MeasureStreamCopyGbps(int64_t n) {
  const auto bytes = static_cast<size_t>(n) * sizeof(double);
  std::vector<double> a(static_cast<size_t>(n));
  std::vector<double> b(static_cast<size_t>(n), 0.0);
  Rng rng(11);
  for (double& v : a) v = rng.NextDouble();
  // One untimed pass touches every page (first-touch faults would
  // otherwise dominate the first timed rep).
  std::memcpy(b.data(), a.data(), bytes);
  const bench::Timing timing = bench::BestOf([&] {
    std::memcpy(b.data(), a.data(), bytes);
    return b[static_cast<size_t>(n) / 2];
  });
  return 16.0 * static_cast<double>(n) / timing.best_ns;
}

// Every kernel is measured twice, dispatched ("kernel-expm1") and through
// its scalar twin ("kernel-expm1-scalar"), so the table shows the SIMD
// speedup directly and a dispatch regression (losing the vector path at
// configure time) trips the gate on the dispatched row. Returns the
// STREAM-copy baseline.
double KernelSection(bool quick, std::vector<Cell>& cells) {
  const size_t first = cells.size();
  std::cout << "kernel dispatch ISA: " << kernels::IsaName() << "\n";
  const int64_t stream_n = quick ? (1 << 20) : (8 << 20);
  const double stream_gbps = MeasureStreamCopyGbps(stream_n);
  std::cout << "STREAM copy baseline: " << Fmt(stream_gbps, 2) << " GB/s ("
            << stream_n << " doubles)\n";
  auto add = [&](std::string bench, int64_t elems, double bytes_per_elem,
                 auto&& pass) {
    cells.push_back(
        KernelCell(std::move(bench), elems, bytes_per_elem, stream_gbps, pass));
  };

  // Cache-resident and streaming sizes: the solver's live group count is
  // tiny (G <= ell), so the 4096 row is the realistic-latency number and
  // the 1M row is the bandwidth-bound roofline number. Quick mode keeps
  // only the small row, which matches the full grid cell by cell.
  const std::vector<int64_t> sizes =
      quick ? std::vector<int64_t>{4096} : std::vector<int64_t>{4096, 1 << 20};

  for (const int64_t m : sizes) {
    const auto sm = static_cast<size_t>(m);
    GroupArrays g(m);

    // exp / expm1 over the solver's actual argument range: positive clock
    // advances ds / w in [0, 8] (groups rebuild past kMaxGroupExp).
    std::vector<double> x(sm);
    std::vector<double> out(sm);
    {
      Rng rng(29);
      for (double& v : x) v = 8.0 * rng.NextDouble();
    }
    // 16 bytes/elem: read x, write out.
    add("kernel-expm1", m, 16.0, [&] {
      kernels::Expm1Batch(x.data(), out.data(), sm);
      return out[sm / 2] + out[sm - 1];
    });
    add("kernel-expm1-scalar", m, 16.0, [&] {
      kernels::Expm1BatchScalar(x.data(), out.data(), sm);
      return out[sm / 2] + out[sm - 1];
    });
    add("kernel-exp", m, 16.0, [&] {
      kernels::ExpBatch(x.data(), out.data(), sm);
      return out[sm / 2] + out[sm - 1];
    });
    add("kernel-exp-scalar", m, 16.0, [&] {
      kernels::ExpBatchScalar(x.data(), out.data(), sm);
      return out[sm / 2] + out[sm - 1];
    });

    // Stopping-clock Newton step: 32 bytes/elem (w, mass, e1 reads and
    // the increment write).
    add("kernel-gain-rate", m, 32.0, [&] {
      const kernels::GainRate gr = kernels::GainRateBatch(
          g.w.data(), g.mass.data(), g.e1.data(), sm, 0.37, g.d.data());
      return gr.gain + gr.rate;
    });
    add("kernel-gain-rate-scalar", m, 32.0, [&] {
      const kernels::GainRate gr = kernels::GainRateBatchScalar(
          g.w.data(), g.mass.data(), g.e1.data(), sm, 0.37, g.d.data());
      return gr.gain + gr.rate;
    });

    // Accrue from the increments the gain-rate rows left in g.d. It
    // mutates e1 in place; restore from the pristine copy inside the
    // timed pass so every rep does identical work. 56 bytes/elem: restore
    // copy (16) + w/mass/lp/d reads (32) + e1 read-modify-write (8 beyond
    // the restore's write, counted once).
    add("kernel-accrue-advance", m, 56.0, [&] {
      std::memcpy(g.e1.data(), g.e1_init.data(), sm * sizeof(double));
      const kernels::AccrueDelta d = kernels::AccrueAdvanceBatch(
          g.w.data(), g.mass.data(), g.lp.data(), g.d.data(), g.e1.data(),
          sm);
      return d.movement + d.lp;
    });
    add("kernel-accrue-advance-scalar", m, 56.0, [&] {
      std::memcpy(g.e1.data(), g.e1_init.data(), sm * sizeof(double));
      const kernels::AccrueDelta d = kernels::AccrueAdvanceBatchScalar(
          g.w.data(), g.mass.data(), g.lp.data(), g.d.data(), g.e1.data(),
          sm);
      return d.movement + d.lp;
    });

    // Absent-mass reduction: 24 bytes/elem (mass, e1, cnt).
    add("kernel-absent-mass", m, 24.0, [&] {
      return kernels::AbsentMassBatch(g.mass.data(), g.e1.data(),
                                      g.cnt.data(), sm, 0.25);
    });
    add("kernel-absent-mass-scalar", m, 24.0, [&] {
      return kernels::AbsentMassBatchScalar(g.mass.data(), g.e1.data(),
                                            g.cnt.data(), sm, 0.25);
    });

    // Waterfill heap compaction over a half-stale arena (the steady-state
    // shape: compaction fires when stale entries reach 50%). Entries are
    // restored from a pristine copy each pass. ~73 bytes/elem: restore
    // (32) + entry reread (16) + compacted write (<= 16) + key/live
    // gathers (9).
    std::vector<std::pair<double, int32_t>> pristine(sm);
    std::vector<std::pair<double, int32_t>> entries(sm);
    std::vector<double> key(sm);
    std::vector<uint8_t> live(sm);
    Rng rng(31);
    for (size_t i = 0; i < sm; ++i) {
      const auto page = static_cast<int32_t>(rng.NextBounded(sm));
      const double snap = rng.NextDouble() * 1e6;
      key[static_cast<size_t>(page)] = snap;
      // Half the entries go stale: wrong snapshot or dead page.
      const bool stale = (i & 1) != 0;
      pristine[i] = {stale ? snap - 1.0 : snap, page};
      live[static_cast<size_t>(page)] = (i % 4 != 3) ? 1 : 0;
    }
    add("kernel-waterfill-compact", m, 73.0, [&] {
      std::copy(pristine.begin(), pristine.end(), entries.begin());
      return static_cast<double>(kernels::WaterfillCompactBatch(
          entries.data(), sm, key.data(), live.data()));
    });
    add("kernel-waterfill-compact-scalar", m, 73.0, [&] {
      std::copy(pristine.begin(), pristine.end(), entries.begin());
      return static_cast<double>(kernels::WaterfillCompactBatchScalar(
          entries.data(), sm, key.data(), live.data()));
    });
  }

  // Gather-prefetch sweep: random 64-byte-row gathers from a working set
  // far past LLC, with the hint running `pf` accesses ahead — the exact
  // access shape of the engine's batched serve front (engine.cpp
  // StepBatch) and DrainShard's remap loop. The distance where ns/access
  // goes flat is what kBatchPrefetchDistance encodes.
  const int64_t rows_n = quick ? (1 << 17) : (1 << 20);  // 8/64 MB
  const int64_t accesses = quick ? (1 << 16) : (1 << 20);
  std::vector<GatherRow> rows(static_cast<size_t>(rows_n));
  std::vector<int32_t> idx(static_cast<size_t>(accesses));
  Rng rng(37);
  for (auto& row : rows) {
    for (double& v : row.vals) v = rng.NextDouble();
  }
  for (auto& i : idx) {
    i = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(rows_n)));
  }
  // 68 bytes/access: the gathered cache line plus the 4-byte index.
  for (const int32_t pf : {0, 2, 4, 8, 16, 32}) {
    add("kernel-gather-pf" + std::to_string(pf), accesses, 68.0, [&] {
      double sum = 0.0;
      const auto n = static_cast<size_t>(accesses);
      const auto d = static_cast<size_t>(pf);
      for (size_t i = 0; i < n; ++i) {
        if (d > 0 && i + d < n) {
          WMLP_PREFETCH_READ(&rows[static_cast<size_t>(idx[i + d])]);
        }
        sum += rows[static_cast<size_t>(idx[i])].vals[0];
      }
      return sum;
    });
  }

  PrintTable("kernel suite (STREAM copy " + Fmt(stream_gbps, 2) + " GB/s)",
             std::span<const Cell>(cells).subspan(first));
  return stream_gbps;
}

// --- JSON -----------------------------------------------------------------

std::string CpuModelName() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 10, "model name") != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto start = line.find_first_not_of(" \t", colon + 1);
    if (start == std::string::npos) break;
    return line.substr(start);
  }
  return "unknown";
}

int64_t PeakRssKb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return -1;
  return usage.ru_maxrss;  // kilobytes on Linux
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string FmtG(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

// The `metadata` object records the machine and toolchain a run came
// from: ns/request figures are machine-specific, so a recorded artifact is
// only comparable with runs that match it there.
void WriteJson(const SuiteArgs& args, const std::vector<Cell>& cells,
               double stream_gbps, const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "error: cannot write " << path << "\n";
    std::exit(1);
  }
  os << "{\n";
  os << "  \"schema\": \"wmlp-bench-perf-v1\",\n";
  os << "  \"git_sha\": \"" << JsonEscape(args.git_sha) << "\",\n";
  os << "  \"metadata\": {\"cpu_model\": \"" << JsonEscape(CpuModelName())
     << "\", \"isa\": \"" << kernels::IsaName() << "\", \"compiler\": \""
     << JsonEscape(__VERSION__) << "\"},\n";
#ifdef NDEBUG
  os << "  \"optimized\": true,\n";
#else
  os << "  \"optimized\": false,\n";
#endif
  os << "  \"quick\": " << (args.quick ? "true" : "false") << ",\n";
  os << "  \"reps\": " << bench::kMinReps << ",\n";
  os << "  \"weight_model\": \"geometric-levels\",\n";
  os << "  \"stream_copy_gb_per_s\": " << FmtG(stream_gbps) << ",\n";
  os << "  \"peak_rss_kb\": " << PeakRssKb() << ",\n";
  os << "  \"results\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    os << "    {\"bench\": \"" << JsonEscape(c.bench) << "\", \"n\": " << c.n
       << ", \"k\": " << c.k << ", \"ell\": " << c.ell
       << ", \"requests\": " << c.requests
       << ", \"ns_per_request\": " << FmtG(c.ns_per_request)
       << ", \"allocs_per_request\": " << FmtG(c.allocs_per_request);
    if (c.gb_per_s) {
      os << ", \"gb_per_s\": " << FmtG(*c.gb_per_s)
         << ", \"roofline_frac\": " << FmtG(*c.roofline_frac);
    }
    os << ", \"cost\": " << FmtG(c.cost) << "}"
       << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
}

int Main(int argc, char** argv) {
  const SuiteArgs args = ParseArgs(argc, argv);
#ifndef NDEBUG
  std::cerr << "warning: bench_perf_suite built without optimization; "
               "the perf gate refuses its numbers\n";
#endif
  std::vector<Cell> cells;
  SolverSection(args.quick, cells);
  ServeSection(args.quick, cells);
  BatchSection(args.quick, cells);
  const double stream_gbps = KernelSection(args.quick, cells);
  std::cout << "peak RSS: " << PeakRssKb() << " kB\n";

  if (!args.json_path.empty()) {
    WriteJson(args, cells, stream_gbps, args.json_path);
    std::cout << "wrote " << args.json_path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace wmlp

int main(int argc, char** argv) { return wmlp::Main(argc, argv); }
