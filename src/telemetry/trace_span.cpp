#include "telemetry/trace_span.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>

#include "util/hot_path.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace wmlp::telemetry {

namespace {

using Clock = std::chrono::steady_clock;

struct ThreadTraceBuf {
  Mutex mu;
  std::vector<TraceEvent> events GUARDED_BY(mu);
  // Assigned once (under the tracer lock) before the buffer is published to
  // the state list; immutable afterwards, so reads need no lock.
  uint32_t tid = 0;
};

struct TracerState {
  Mutex mu;
  // Live + exited threads.
  std::vector<std::shared_ptr<ThreadTraceBuf>> bufs GUARDED_BY(mu);
  uint32_t next_tid GUARDED_BY(mu) = 0;
  std::atomic<int64_t> dropped{0};
};

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Steady-clock time of the last Arm(). Constant-initialized, so NowNs,
// which armed spans call inside hot functions, takes no lock and touches
// no lazily built state.
std::atomic<int64_t> base_ns{0};

TracerState& State() {
  static TracerState* state = new TracerState;  // leaky, like the registry
  return *state;
}

ThreadTraceBuf& LocalBuf() {
  // The state list keeps a shared_ptr, so a thread's buffer survives the
  // thread (its events drain later); the TLS shared_ptr just drops.
  thread_local std::shared_ptr<ThreadTraceBuf> buf = [] {
    auto b = std::make_shared<ThreadTraceBuf>();
    TracerState& st = State();
    MutexLock lock(st.mu);
    b->tid = st.next_tid++;
    st.bufs.push_back(b);
    return b;
  }();
  return *buf;
}

}  // namespace

void Tracer::Arm() {
  State().dropped.store(0, std::memory_order_relaxed);
  base_ns.store(SteadyNs());
  armed_.store(true, std::memory_order_relaxed);
}

void Tracer::Disarm() { armed_.store(false, std::memory_order_relaxed); }

int64_t Tracer::NowNs() { return SteadyNs() - base_ns.load(); }

WMLP_COLD void Tracer::Emit(const char* name, const char* category,
                            int64_t start_ns, int64_t duration_ns) {
  if (!armed()) return;
  ThreadTraceBuf& buf = LocalBuf();
  MutexLock lock(buf.mu);
  if (buf.events.size() >= kMaxEventsPerThread) {
    State().dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf.events.push_back(
      TraceEvent{name, category, start_ns, duration_ns, buf.tid});
}

std::vector<TraceEvent> Tracer::Drain() {
  TracerState& st = State();
  std::vector<TraceEvent> out;
  {
    MutexLock lock(st.mu);
    for (const auto& buf : st.bufs) {
      MutexLock buf_lock(buf->mu);
      out.insert(out.end(), buf->events.begin(), buf->events.end());
      buf->events.clear();
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.tid < b.tid;
            });
  return out;
}

int64_t Tracer::dropped() {
  return State().dropped.load(std::memory_order_relaxed);
}

std::string TraceEventsToJson(const std::vector<TraceEvent>& events) {
  // trace_event ts/dur are microseconds; fractional values are accepted, so
  // nanosecond precision survives as e.g. "ts":1.234.
  std::ostringstream os;
  os.precision(15);  // keep ns resolution through the micros conversion
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << e.name << "\",\"cat\":\"" << e.category
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid << ",\"ts\":"
       << static_cast<double>(e.start_ns) / 1000.0
       << ",\"dur\":" << static_cast<double>(e.duration_ns) / 1000.0 << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace wmlp::telemetry
