#include "sim/simulator.h"

#include "engine/engine.h"
#include "engine/request_source.h"
#include "engine/step_observers.h"
#include "util/check.h"

namespace wmlp {

CacheOps::CacheOps(const Instance& instance, CacheState& state,
                   StepObserver* observer)
    : instance_(instance), state_(state), observer_(observer) {}

void CacheOps::Fetch(PageId p, Level level) {
  WMLP_CHECK(instance_.valid_page(p));
  WMLP_CHECK(instance_.valid_level(level));
  state_.Insert(p, level);  // enforces one copy per page
  const Cost w = instance_.weight(p, level);
  fetch_cost_ += w;
  ++fetches_;
  if (observer_ != nullptr) observer_->OnFetch(time_, p, level, w);
}

void CacheOps::Evict(PageId p) {
  const Level level = state_.Remove(p);
  const Cost w = instance_.weight(p, level);
  eviction_cost_ += w;
  ++evictions_;
  if (observer_ != nullptr) observer_->OnEvict(time_, p, level, w);
}

void CacheOps::Replace(PageId p, Level to_level) {
  Evict(p);
  Fetch(p, to_level);
}

SimResult Simulate(const Trace& trace, Policy& policy,
                   const SimOptions& options) {
  TraceSource source(trace);
  EngineOptions eopts;
  EventLogObserver log_observer(options.event_log);
  MultiObserver multi;
  if (options.event_log != nullptr && options.observer != nullptr) {
    multi.Add(&log_observer);
    multi.Add(options.observer);
    eopts.observer = &multi;
  } else if (options.event_log != nullptr) {
    eopts.observer = &log_observer;
  } else {
    eopts.observer = options.observer;
  }
  Engine engine(source, policy, eopts);
  return engine.Run();
}

}  // namespace wmlp
