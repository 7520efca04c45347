// Incremental, steppable driver for online policies — the one place that
// owns the serve loop, feasibility checking, and observability wiring.
//
// Replaces the monolithic Simulate(Trace, Policy) loop: requests come from
// a RequestSource (in-memory, streamed from disk, or generated on the fly),
// instrumentation attaches as StepObservers, and execution is resumable
// (Step / RunFor / Run), so experiments can checkpoint mid-run and inspect
// live cache state. Simulate survives as a thin compatibility wrapper.
//
// Two feeding modes share the same serve loop:
//   - pull: construct with a RequestSource; Run/RunFor drain it in
//     options.batch-sized slugs through StepBatch.
//   - push: construct with just an Instance; the caller hands batches to
//     StepBatch directly (the sharded server's inbox drain uses this).
// Either way the per-request semantics — validity check, policy Serve,
// feasibility checks, audit hooks, time advance — are identical to
// Step(), so batched runs are bitwise-equal to single-stepped ones.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "engine/request_source.h"
#include "sim/policy.h"
#include "sim/simulator.h"

namespace wmlp {

// Every policy contract violation (an unserved request, an overfull cache)
// aborts the run: the feasibility checks are unconditional.
struct EngineOptions {
  // Optional observer notified on every fetch, eviction, and served
  // request. Attach a MultiObserver to fan out. Must outlive the engine.
  StepObserver* observer = nullptr;
  // Pull-mode batch size for RunFor/Run: requests are pulled from the
  // source and served in slugs of up to this many. Purely a throughput
  // knob — results are bitwise invariant to it. Must be >= 1.
  int64_t batch = 256;
};

// Per-call statistics from StepBatch (this batch only, not cumulative).
struct BatchResult {
  int64_t served = 0;
  int64_t hits = 0;
  int64_t misses = 0;
};

class Engine {
 public:
  // Pull mode: `source` and `policy` must outlive the engine. Attaches the
  // policy to the source's instance; the cache starts empty.
  Engine(RequestSource& source, Policy& policy,
         const EngineOptions& options = {});

  // Push mode: no source — feed requests via StepBatch. `instance` and
  // `policy` must outlive the engine; Step/RunFor/Run report exhaustion
  // immediately.
  Engine(const Instance& instance, Policy& policy,
         const EngineOptions& options = {});

  // Serves the next request. Returns false (and does nothing) once the
  // source is exhausted.
  bool Step();

  // Serves `reqs` in order, exactly as consecutive Step()s would, and
  // writes this batch's stats into `out`. Observers get one
  // OnBatchBegin/OnBatch pair instead of per-request OnStep calls (fetch/
  // evict events stay per-request); see docs/ARCHITECTURE.md §11.
  // Allocation-free after the first call at a given batch size.
  void StepBatch(std::span<const Request> reqs, BatchResult& out);

  // Serves up to `n` requests; returns how many were actually served.
  int64_t RunFor(int64_t n);

  // Runs to exhaustion and returns the final result.
  SimResult Run();

  // Snapshot of the run so far (valid mid-run; cheap).
  SimResult result() const;

  // Requests served so far == the next request's timestamp.
  Time time() const { return time_; }
  bool done() const { return done_; }

  // Live mid-run state, for checkpointed experiments.
  const CacheState& cache() const { return state_; }
  const CacheOps& ops() const { return ops_; }
  const Instance& instance() const { return *instance_; }

 private:
  RequestSource* source_;    // null in push mode
  const Instance* instance_;
  Policy& policy_;
  EngineOptions options_;
  CacheState state_;
  CacheOps ops_;
  Time time_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  bool done_ = false;
  // Reused scratch: pull-mode request slug and per-batch hit flags. Sized
  // once, never shrunk — the steady-state serve loop does not allocate.
  std::vector<Request> pull_buf_;
  std::vector<uint8_t> hit_buf_;
};

}  // namespace wmlp
