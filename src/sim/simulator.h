// Compatibility surface for one-shot simulation: SimResult + Simulate().
//
// The actual serve loop lives in engine/engine.h (RequestSource +
// StepObserver + Engine); Simulate wraps a TraceSource-backed Engine run.
#pragma once

#include <cstdint>
#include <string>

#include "sim/policy.h"
#include "trace/instance.h"

namespace wmlp {

struct SimResult {
  // Headline metric, the paper's convention: sum of w(p, i) over evictions.
  Cost eviction_cost = 0.0;
  // Reference metric: sum of w(p, i) over fetches (equal to eviction cost up
  // to the additive weight of the final cache contents).
  Cost fetch_cost = 0.0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t fetches = 0;

  double hit_rate() const {
    const int64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

// A policy contract violation (unsatisfied request, overfull cache) aborts
// the run, as in the engine.
struct SimOptions {
  // If non-null, every fetch/evict is appended here (served by an
  // EventLogObserver under the hood).
  std::vector<CacheEvent>* event_log = nullptr;
  // Optional additional observer, forwarded to the engine.
  StepObserver* observer = nullptr;
};

// Runs `policy` over `trace` starting from an empty cache. Thin wrapper
// over Engine(TraceSource, policy).Run().
SimResult Simulate(const Trace& trace, Policy& policy,
                   const SimOptions& options = {});

}  // namespace wmlp
