// Span-based event tracer emitting Chrome/Perfetto `trace_event` JSON
// ("ph":"X" complete events; load the file at ui.perfetto.dev or
// chrome://tracing).
//
// The tracer is DISARMED by default. Arming (Tracer::Arm, done by
// TelemetrySession when --trace-out is given) zeroes the clock and lets
// TraceSpan destructors append events to per-thread buffers; Drain()
// collects them after workers have finished. A disarmed span costs one
// relaxed load at each end and records nothing.
//
// Per-thread buffers are capped (kMaxEventsPerThread); once full, further
// events are counted in dropped() instead of recorded — tracing degrades,
// it never OOMs. Buffers are guarded by a per-buffer mutex that only the
// owning thread and Drain() ever touch, so the hot path is an uncontended
// lock (~20 ns, paid only while armed).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace wmlp::telemetry {

struct TraceEvent {
  const char* name;  // must be a string literal / static storage
  const char* category;
  int64_t start_ns;  // since Arm()
  int64_t duration_ns;
  uint32_t tid;  // dense per-thread index, not an OS tid
};

class Tracer {
 public:
  static constexpr std::size_t kMaxEventsPerThread = 1u << 18;

  static bool armed() { return armed_.load(std::memory_order_relaxed); }
  static void Arm();     // zeroes the clock, enables recording
  static void Disarm();  // stops recording; buffered events remain drainable

  static int64_t NowNs();  // monotonic ns since the last Arm()

  // Appends one complete event to the calling thread's buffer (no-op when
  // disarmed). `name`/`category` must outlive the tracer (string literals).
  // A WMLP_COLD sink: it runs only while armed, and its buffer grows.
  static void Emit(const char* name, const char* category, int64_t start_ns,
                   int64_t duration_ns);

  // Moves out every buffered event (all threads, including exited ones),
  // sorted by start time. Call after worker threads are joined or idle.
  static std::vector<TraceEvent> Drain();

  // Number of events lost to full per-thread buffers since the last Arm().
  static int64_t dropped();

 private:
  static inline std::atomic<bool> armed_{false};
};

// RAII span: records [construction, destruction) as one trace event when
// the tracer is armed.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* category = "wmlp") {
    if (Tracer::armed()) {
      name_ = name;
      category_ = category;
      start_ns_ = Tracer::NowNs();
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr && Tracer::armed()) {
      Tracer::Emit(name_, category_, start_ns_, Tracer::NowNs() - start_ns_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;
  const char* category_ = nullptr;
  int64_t start_ns_ = 0;
};

// Serializes `events` as a Chrome trace_event JSON object
// {"traceEvents":[...], "displayTimeUnit":"ms"} with ts/dur in microseconds.
std::string TraceEventsToJson(const std::vector<TraceEvent>& events);

}  // namespace wmlp::telemetry
