#include "engine/request_source.h"

#include <algorithm>
#include <utility>

#include "trace/trace_io.h"
#include "util/check.h"

namespace wmlp {

std::unique_ptr<StreamingFileSource> StreamingFileSource::Open(
    const std::string& path, std::string* error, const Options& options) {
  if (options.chunk_size < 1) {
    if (error != nullptr) *error = "chunk_size must be >= 1";
    return nullptr;
  }
  std::ifstream ifs(path);
  if (!ifs) {
    if (error != nullptr) *error = "cannot open " + path;
    return nullptr;
  }
  std::optional<TraceHeader> header = ReadTraceHeader(ifs, error);
  if (!header) return nullptr;
  return std::unique_ptr<StreamingFileSource>(
      new StreamingFileSource(std::move(ifs), std::move(header->instance),
                              header->length, options));
}

StreamingFileSource::StreamingFileSource(std::ifstream stream,
                                         Instance instance, int64_t total,
                                         const Options& options)
    : stream_(std::move(stream)),
      instance_(std::move(instance)),
      options_(options),
      total_(total) {
  buffer_.reserve(static_cast<size_t>(options_.chunk_size));
}

void StreamingFileSource::Refill() {
  buffer_.clear();
  buffer_pos_ = 0;
  const int64_t want =
      std::min(options_.chunk_size, total_ - read_);
  for (int64_t i = 0; i < want; ++i) {
    Request r;
    WMLP_CHECK_MSG(static_cast<bool>(stream_ >> r.page >> r.level),
                   "truncated request list at t=" << read_);
    WMLP_CHECK_MSG(
        instance_->valid_page(r.page) && instance_->valid_level(r.level),
        "request out of range at t=" << read_);
    buffer_.push_back(r);
    ++read_;
  }
}

bool StreamingFileSource::Next(Request& r) {
  if (consumed_ >= total_) return false;
  if (buffer_pos_ >= buffer_.size()) Refill();
  r = buffer_[buffer_pos_++];
  ++consumed_;
  return true;
}

int64_t StreamingFileSource::NextBatch(Request* out, int64_t max) {
  int64_t written = 0;
  while (written < max && consumed_ < total_) {
    if (buffer_pos_ >= buffer_.size()) Refill();
    const int64_t avail = static_cast<int64_t>(buffer_.size() - buffer_pos_);
    const int64_t take = std::min(max - written, avail);
    std::copy_n(buffer_.data() + buffer_pos_, static_cast<size_t>(take),
                out + written);
    buffer_pos_ += static_cast<size_t>(take);
    consumed_ += take;
    written += take;
  }
  return written;
}

}  // namespace wmlp
