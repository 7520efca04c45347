// Streaming request feeds for the engine.
//
// A RequestSource yields the request sequence one request at a time, so the
// engine never requires the whole trace in memory:
//   - TraceSource          wraps an in-memory Trace (zero-copy view).
//   - StreamingFileSource  reads the trace_io v1 format incrementally in
//                          fixed-size chunks (instance + O(chunk) requests
//                          resident, regardless of trace length).
#pragma once

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace/instance.h"

namespace wmlp {

class RequestSource {
 public:
  virtual ~RequestSource() = default;

  // The instance every emitted request refers to. Stable for the lifetime
  // of the source.
  virtual const Instance& instance() const = 0;

  // Writes the next request into `r` and returns true, or returns false
  // when the sequence is exhausted.
  virtual bool Next(Request& r) = 0;

  // Fills up to `max` requests into `out` and returns how many were
  // written. A short return (< max) means the source is exhausted — the
  // engine's batched pull loop relies on this, so overrides must not
  // return short while requests remain. The default loops Next();
  // in-memory sources override with a bulk copy.
  virtual int64_t NextBatch(Request* out, int64_t max) {
    int64_t n = 0;
    while (n < max && Next(out[n])) ++n;
    return n;
  }

  // Total number of requests this source will emit, or -1 if unknown.
  virtual int64_t length_hint() const { return -1; }
};

// Zero-copy view over an in-memory trace. Reset() rewinds, so one source
// can drive repeated runs (benchmarks, seed sweeps).
class TraceSource final : public RequestSource {
 public:
  // Non-owning: `trace` must outlive the source.
  explicit TraceSource(const Trace& trace) : trace_(&trace) {}
  // Owning variant for sources built from temporaries.
  explicit TraceSource(Trace&& trace)
      : owned_(std::move(trace)), trace_(&*owned_) {}

  const Instance& instance() const override { return trace_->instance; }
  bool Next(Request& r) override {
    if (pos_ >= trace_->length()) return false;
    r = trace_->requests[static_cast<size_t>(pos_++)];
    return true;
  }
  int64_t NextBatch(Request* out, int64_t max) override {
    const int64_t n = std::min(max, trace_->length() - pos_);
    if (n <= 0) return 0;
    std::copy_n(trace_->requests.data() + pos_, static_cast<size_t>(n), out);
    pos_ += n;
    return n;
  }
  int64_t length_hint() const override { return trace_->length(); }

  void Reset() { pos_ = 0; }

 private:
  std::optional<Trace> owned_;
  const Trace* trace_;
  Time pos_ = 0;
};

// Incremental reader for the trace_io v1 format: the header and weight
// matrix are read eagerly by ReadTraceHeader (the Instance must exist in
// full), then the request list streams in chunks of `chunk_size`, so peak
// memory is O(n * ell + chunk) however long the trace is.
struct StreamingFileOptions {
  int64_t chunk_size = 4096;  // requests buffered per refill
};

class StreamingFileSource final : public RequestSource {
 public:
  using Options = StreamingFileOptions;

  // Returns nullptr on malformed header/weights; `error` receives a
  // description. Request-list corruption is detected lazily during Next()
  // and aborts (the stream cannot be partially trusted).
  static std::unique_ptr<StreamingFileSource> Open(
      const std::string& path, std::string* error = nullptr,
      const Options& options = {});

  const Instance& instance() const override { return *instance_; }
  bool Next(Request& r) override;
  int64_t NextBatch(Request* out, int64_t max) override;
  int64_t length_hint() const override { return total_; }

  // Introspection for tests: the buffer never holds more than chunk_size
  // requests.
  int64_t chunk_size() const { return options_.chunk_size; }
  int64_t buffered() const { return static_cast<int64_t>(buffer_.size()); }

 private:
  StreamingFileSource(std::ifstream stream, Instance instance, int64_t total,
                      const Options& options);

  void Refill();

  std::ifstream stream_;
  std::optional<Instance> instance_;
  Options options_;
  int64_t total_ = 0;     // declared request count
  int64_t consumed_ = 0;  // requests handed out so far
  int64_t read_ = 0;      // requests pulled off the stream so far
  std::vector<Request> buffer_;
  size_t buffer_pos_ = 0;
};

}  // namespace wmlp
