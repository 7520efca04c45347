#include "server/inbox.h"

#include <chrono>

#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/hot_path.h"

namespace wmlp {

namespace {

// Telemetry only: nanoseconds on the steady clock, for the inbox's wait
// and merge counters.
int64_t NowNsForTelemetry() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             // Timing metric only; never feeds serving decisions.
             std::chrono::steady_clock::now()  // wmlp-lint-allow(wall-clock)
                 .time_since_epoch())
      .count();
}

}  // namespace

struct ShardInbox::Metrics {
  static const Metrics& Get() {
    static const Metrics metrics;
    return metrics;
  }
  telemetry::Counter& push_batches =
      telemetry::Registry::Get().GetCounter("wmlp_inbox_push_batches_total");
  telemetry::Counter& push_requests =
      telemetry::Registry::Get().GetCounter("wmlp_inbox_push_requests_total");
  telemetry::Counter& wait_ns =
      telemetry::Registry::Get().GetCounter("wmlp_inbox_wait_ns_total");
  telemetry::Counter& merge_ns =
      telemetry::Registry::Get().GetCounter("wmlp_inbox_merge_ns_total");
  telemetry::Counter& pop_batches =
      telemetry::Registry::Get().GetCounter("wmlp_inbox_pop_batches_total");
  telemetry::Counter& pop_requests =
      telemetry::Registry::Get().GetCounter("wmlp_inbox_pop_requests_total");
  telemetry::Histogram& holdback_depth =
      telemetry::Registry::Get().GetHistogram(
          "wmlp_inbox_holdback_depth",
          telemetry::HistogramLayout::PowerOfTwo());
  telemetry::Gauge& holdback_depth_now =
      telemetry::Registry::Get().GetGauge("wmlp_inbox_holdback_depth_now");
};

ShardInbox::ShardInbox(int32_t num_clients)
    : clients_(static_cast<size_t>(num_clients)), metrics_(Metrics::Get()) {
  WMLP_CHECK(num_clients >= 1);
}

void ShardInbox::Push(int32_t client, std::span<const SeqRequest> batch) {
  if (batch.empty()) return;
  metrics_.push_batches.Inc();
  metrics_.push_requests.Add(batch.size());
  {
    MutexLock lock(mutex_);
    ClientQueue& q = clients_[static_cast<size_t>(client)];
    WMLP_CHECK_MSG(!q.closed, "push after close from client " << client);
    WMLP_DCHECK(q.queue.empty() || q.queue.back().seq < batch.front().seq);
    q.queue.append(batch);
  }
  ready_.NotifyOne();
}

void ShardInbox::Close(int32_t client) {
  {
    MutexLock lock(mutex_);
    clients_[static_cast<size_t>(client)].closed = true;
  }
  ready_.NotifyOne();
}

bool ShardInbox::CanPopLocked() const {
  bool any_nonempty = false;
  for (const ClientQueue& q : clients_) {
    if (q.queue.empty()) {
      if (!q.closed) return false;  // a smaller seq may still arrive
    } else {
      any_nonempty = true;
    }
  }
  return any_nonempty;
}

bool ShardInbox::FinishedLocked() const {
  for (const ClientQueue& q : clients_) {
    if (!q.closed || !q.queue.empty()) return false;
  }
  return true;
}

// Hot consumer entry: the merge loop writes straight into the caller's
// array and pops from pre-grown rings — nothing in this function's call
// tree may allocate (gate-checked via WMLP_HOT; see util/hot_path.h).
WMLP_HOT size_t ShardInbox::PopReady(SeqRequest* out, size_t max_out) {
  const int64_t wait_start = NowNsForTelemetry();
  MutexLock lock(mutex_);
  while (!CanPopLocked() && !FinishedLocked()) ready_.Wait(lock);
  const int64_t merge_start = NowNsForTelemetry();
  metrics_.wait_ns.Add(static_cast<uint64_t>(merge_start - wait_start));
  size_t popped = 0;
  while (popped < max_out && CanPopLocked()) {
    ClientQueue* best = nullptr;
    for (ClientQueue& q : clients_) {
      if (q.queue.empty()) continue;
      if (best == nullptr || q.queue.front().seq < best->queue.front().seq) {
        best = &q;
      }
    }
    out[popped++] = best->queue.front();
    best->queue.pop_front();
  }
  metrics_.merge_ns.Add(
      static_cast<uint64_t>(NowNsForTelemetry() - merge_start));
  metrics_.pop_batches.Inc();
  metrics_.pop_requests.Add(popped);
  // Hold-back depth: requests still queued after the pop — present but not
  // yet provably next in sequence order (or beyond max_out).
  size_t held = 0;
  for (const ClientQueue& q : clients_) held += q.queue.size();
  metrics_.holdback_depth.Observe(static_cast<double>(held));
  metrics_.holdback_depth_now.Set(static_cast<double>(held));
  return popped;
}

bool ShardInbox::drained() {
  MutexLock lock(mutex_);
  return FinishedLocked();
}

}  // namespace wmlp
