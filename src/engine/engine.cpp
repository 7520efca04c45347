#include "engine/engine.h"

#include <algorithm>
#include <sstream>

#include "sim/sim_audit.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_span.h"
#include "util/check.h"
#include "util/hot_path.h"

namespace wmlp {

namespace {

// Cold [[noreturn]] reporters for StepBatch's per-request contract checks.
// The batched loop is WMLP_HOT; WMLP_CHECK_MSG would build an ostringstream
// inline at the call site (an allocation statically inside the hot symbol),
// so the message assembly lives out-of-line in gate-recognized sinks.
[[noreturn]] WMLP_COLD void BatchFailInvalidRequest(Time t) {
  detail::CheckFailed("inst.valid_page(r.page) && inst.valid_level(r.level)",
                      __FILE__, __LINE__,
                      "- invalid request at t=" + std::to_string(t));
}

[[noreturn]] WMLP_COLD void BatchFailUnserved(const Policy& policy,
                                              const Request& r, Time t) {
  std::ostringstream oss;
  oss << "- " << policy.name() << " left request (page=" << r.page
      << ", level=" << r.level << ") unserved at t=" << t;
  detail::CheckFailed("state_.serves(r)", __FILE__, __LINE__, oss.str());
}

[[noreturn]] WMLP_COLD void BatchFailOverfilled(const Policy& policy,
                                                int32_t size, int32_t capacity,
                                                Time t) {
  std::ostringstream oss;
  oss << "- " << policy.name() << " overfilled cache at t=" << t << ": "
      << size << " > " << capacity;
  detail::CheckFailed("state_.size() <= state_.capacity()", __FILE__,
                      __LINE__, oss.str());
}

}  // namespace

Engine::Engine(RequestSource& source, Policy& policy,
               const EngineOptions& options)
    : source_(&source),
      instance_(&source.instance()),
      policy_(policy),
      options_(options),
      state_(source.instance()),
      ops_(source.instance(), state_, options.observer) {
  WMLP_CHECK_MSG(options_.batch >= 1, "EngineOptions::batch must be >= 1");
  policy_.Attach(*instance_);
  pull_buf_.reserve(static_cast<size_t>(options_.batch));
  hit_buf_.reserve(static_cast<size_t>(options_.batch));
}

Engine::Engine(const Instance& instance, Policy& policy,
               const EngineOptions& options)
    : source_(nullptr),
      instance_(&instance),
      policy_(policy),
      options_(options),
      state_(instance),
      ops_(instance, state_, options.observer) {
  WMLP_CHECK_MSG(options_.batch >= 1, "EngineOptions::batch must be >= 1");
  policy_.Attach(*instance_);
  hit_buf_.reserve(static_cast<size_t>(options_.batch));
}

bool Engine::Step() {
  if (done_) return false;
  WMLP_TELEMETRY_SPAN(span, "engine.step", "engine");
  Request r;
  if (source_ == nullptr || !source_->Next(r)) {
    done_ = true;
    return false;
  }
  if constexpr (telemetry::kEnabled) {
    WMLP_TELEMETRY_COUNTER(steps, "wmlp_engine_steps_total");
    steps.Inc();
  }
  const Instance& inst = *instance_;
  WMLP_CHECK_MSG(inst.valid_page(r.page) && inst.valid_level(r.level),
                 "invalid request at t=" << time_);
  ops_.set_time(time_);
  const bool hit = state_.serves(r);
  policy_.Serve(time_, r, ops_);
  WMLP_CHECK_MSG(state_.serves(r),
                 policy_.name() << " left request (page=" << r.page
                                << ", level=" << r.level
                                << ") unserved at t=" << time_);
  WMLP_CHECK_MSG(state_.size() <= state_.capacity(),
                 policy_.name() << " overfilled cache at t=" << time_ << ": "
                                << state_.size() << " > "
                                << state_.capacity());
  if constexpr (audit::kEnabled) {
    audit::AuditCacheState(inst, state_);
    audit::AuditCostConvention(inst, state_, ops_.fetch_cost(),
                               ops_.eviction_cost());
  }
  if (hit) {
    ++hits_;
    if constexpr (telemetry::kEnabled) {
      WMLP_TELEMETRY_COUNTER(hit_count, "wmlp_engine_hits_total");
      hit_count.Inc();
    }
  } else {
    ++misses_;
    if constexpr (telemetry::kEnabled) {
      WMLP_TELEMETRY_COUNTER(miss_count, "wmlp_engine_misses_total");
      miss_count.Inc();
    }
  }
  if (options_.observer != nullptr) {
    options_.observer->OnStep(time_, r, hit);
  }
  ++time_;
  return true;
}

WMLP_HOT void Engine::StepBatch(std::span<const Request> reqs,
                                BatchResult& out) {
  const int64_t n = static_cast<int64_t>(reqs.size());
  out.served = n;
  out.hits = 0;
  out.misses = 0;
  if (n == 0) return;
  WMLP_TELEMETRY_SPAN(span, "engine.step_batch", "engine");
  const Instance& inst = *instance_;
  const Time t0 = time_;
  if (options_.observer != nullptr) {
    options_.observer->OnBatchBegin(t0, n);
  }
  if (hit_buf_.size() < static_cast<size_t>(n)) {
    coldpath::GrowTo(hit_buf_, static_cast<size_t>(n));
  }
  uint8_t* const hits_out = hit_buf_.data();
  int64_t batch_hits = 0;
  // Bandwidth-aware front: stream the batch's per-page rows toward the
  // core `pf` requests ahead of the serve. The policy opts in via
  // PrefetchDistance() (0 keeps this loop branch-free of virtual calls);
  // the cap bounds the lookahead on adversarial overrides. Prefetches are
  // issued only for requests that will pass validation — an invalid page
  // id must not be turned into a pointer, even a hint.
  const int32_t pd = policy_.PrefetchDistance();
  const int64_t pf = pd > 64 ? int64_t{64} : static_cast<int64_t>(pd);
  if (pf > 0) {
    const int64_t warm = pf < n ? pf : n;
    for (int64_t i = 0; i < warm; ++i) {
      const Request& rw = reqs[static_cast<size_t>(i)];
      if (inst.valid_page(rw.page) && inst.valid_level(rw.level)) {
        state_.Prefetch(rw.page);
        policy_.Prefetch(rw);
      }
    }
  }
  for (int64_t i = 0; i < n; ++i) {
    const Request& r = reqs[static_cast<size_t>(i)];
    if (!(inst.valid_page(r.page) && inst.valid_level(r.level))) {
      BatchFailInvalidRequest(time_);
    }
    if (pf > 0 && i + pf < n) {
      const Request& ra = reqs[static_cast<size_t>(i + pf)];
      if (inst.valid_page(ra.page) && inst.valid_level(ra.level)) {
        state_.Prefetch(ra.page);
        policy_.Prefetch(ra);
      }
    }
    ops_.set_time(time_);
    const bool hit = state_.serves(r);
    policy_.Serve(time_, r, ops_);
    if (!state_.serves(r)) BatchFailUnserved(policy_, r, time_);
    if (state_.size() > state_.capacity()) {
      BatchFailOverfilled(policy_, state_.size(), state_.capacity(), time_);
    }
    if constexpr (audit::kEnabled) {
      audit::AuditCacheState(inst, state_);
      audit::AuditCostConvention(inst, state_, ops_.fetch_cost(),
                                 ops_.eviction_cost());
    }
    hits_out[static_cast<size_t>(i)] = hit ? 1 : 0;
    batch_hits += hit ? 1 : 0;
    ++time_;
  }
  out.hits = batch_hits;
  out.misses = n - batch_hits;
  hits_ += out.hits;
  misses_ += out.misses;
  if constexpr (telemetry::kEnabled) {
    WMLP_TELEMETRY_COUNTER(steps, "wmlp_engine_steps_total");
    steps.Add(static_cast<uint64_t>(n));
    WMLP_TELEMETRY_COUNTER(hit_count, "wmlp_engine_hits_total");
    hit_count.Add(static_cast<uint64_t>(out.hits));
    WMLP_TELEMETRY_COUNTER(miss_count, "wmlp_engine_misses_total");
    miss_count.Add(static_cast<uint64_t>(out.misses));
  }
  if (options_.observer != nullptr) {
    options_.observer->OnBatch(
        t0, reqs,
        std::span<const uint8_t>(hits_out, static_cast<size_t>(n)));
  }
}

int64_t Engine::RunFor(int64_t n) {
  int64_t served = 0;
  BatchResult batch;
  while (served < n && !done_) {
    if (source_ == nullptr) {
      done_ = true;
      break;
    }
    const int64_t want = std::min(n - served, options_.batch);
    pull_buf_.resize(static_cast<size_t>(want));
    const int64_t got = source_->NextBatch(pull_buf_.data(), want);
    if (got == 0) {
      done_ = true;
      break;
    }
    StepBatch(std::span<const Request>(pull_buf_.data(),
                                       static_cast<size_t>(got)),
              batch);
    served += got;
    // A short fill means the source is exhausted (NextBatch's contract).
    if (got < want) done_ = true;
  }
  return served;
}

SimResult Engine::Run() {
  WMLP_TELEMETRY_SPAN(span, "engine.run", "engine");
  BatchResult batch;
  while (!done_) {
    if (source_ == nullptr) {
      done_ = true;
      break;
    }
    pull_buf_.resize(static_cast<size_t>(options_.batch));
    const int64_t got = source_->NextBatch(pull_buf_.data(), options_.batch);
    if (got == 0) {
      done_ = true;
      break;
    }
    StepBatch(std::span<const Request>(pull_buf_.data(),
                                       static_cast<size_t>(got)),
              batch);
    if (got < options_.batch) done_ = true;
  }
  return result();
}

SimResult Engine::result() const {
  SimResult result;
  result.eviction_cost = ops_.eviction_cost();
  result.fetch_cost = ops_.fetch_cost();
  result.hits = hits_;
  result.misses = misses_;
  result.evictions = ops_.evictions();
  result.fetches = ops_.fetches();
  return result;
}

}  // namespace wmlp
