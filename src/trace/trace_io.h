// Plain-text (de)serialization for traces, so experiments can be re-run on
// saved workloads and traces can be inspected by hand.
//
// Format (line-oriented):
//   wmlp-trace v1
//   n k ell
//   <n lines of ell weights each>
//   T
//   <T lines: page level>
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "trace/instance.h"

namespace wmlp {

void WriteTrace(const Trace& trace, std::ostream& os);
std::string TraceToString(const Trace& trace);

// The part of a trace before its request list.
struct TraceHeader {
  Instance instance;
  int64_t length;  // declared request count T
};

// Reads the magic line, "n k ell", the weight matrix and T, leaving `is`
// at the first request. ReadTrace and the engine's StreamingFileSource
// both read through it, so they accept exactly the same headers.
std::optional<TraceHeader> ReadTraceHeader(std::istream& is,
                                           std::string* error = nullptr);

// Returns nullopt on malformed input; `error` receives a description.
std::optional<Trace> ReadTrace(std::istream& is, std::string* error = nullptr);
std::optional<Trace> TraceFromString(const std::string& text,
                                     std::string* error = nullptr);

bool WriteTraceFile(const Trace& trace, const std::string& path);
std::optional<Trace> ReadTraceFile(const std::string& path,
                                   std::string* error = nullptr);

}  // namespace wmlp
