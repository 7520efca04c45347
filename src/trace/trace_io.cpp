#include "trace/trace_io.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace wmlp {

namespace {
constexpr char kMagic[] = "wmlp-trace v1";

// Hard ceiling on the eagerly-allocated weight matrix (n * ell entries):
// a malformed or hostile header must not be able to demand gigabytes
// before the body has produced a single value. 1 << 26 doubles = 512 MiB.
constexpr int64_t kMaxWeightEntries = int64_t{1} << 26;

// The request list is streamed, so a huge declared length is fine — but
// reserve() must not trust it (a "1e18 requests" header on a 10-byte body
// would otherwise OOM before the truncation check fires).
constexpr int64_t kMaxReserve = int64_t{1} << 20;

bool Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}
}  // namespace

void WriteTrace(const Trace& trace, std::ostream& os) {
  const Instance& inst = trace.instance;
  os << kMagic << "\n";
  os << inst.num_pages() << " " << inst.cache_size() << " "
     << inst.num_levels() << "\n";
  os.precision(17);
  for (PageId p = 0; p < inst.num_pages(); ++p) {
    for (Level i = 1; i <= inst.num_levels(); ++i) {
      os << inst.weight(p, i) << (i == inst.num_levels() ? "" : " ");
    }
    os << "\n";
  }
  os << trace.requests.size() << "\n";
  for (const Request& r : trace.requests) {
    os << r.page << " " << r.level << "\n";
  }
}

std::string TraceToString(const Trace& trace) {
  std::ostringstream oss;
  WriteTrace(trace, oss);
  return oss.str();
}

std::optional<TraceHeader> ReadTraceHeader(std::istream& is,
                                           std::string* error) {
  std::string magic;
  std::getline(is, magic);
  if (magic != kMagic) {
    Fail(error, "bad magic line: '" + magic + "'");
    return std::nullopt;
  }
  int32_t n = 0, k = 0, ell = 0;
  if (!(is >> n >> k >> ell) || n < 1 || k < 1 || ell < 1) {
    Fail(error, "bad header (n k ell)");
    return std::nullopt;
  }
  if (static_cast<int64_t>(n) * ell > kMaxWeightEntries) {
    Fail(error, "weight matrix too large (n * ell > 2^26)");
    return std::nullopt;
  }
  std::vector<std::vector<Cost>> weights(
      static_cast<size_t>(n), std::vector<Cost>(static_cast<size_t>(ell)));
  for (auto& row : weights) {
    for (auto& w : row) {
      if (!(is >> w)) {
        Fail(error, "truncated weight matrix");
        return std::nullopt;
      }
      // isfinite also rejects NaN, which would otherwise slip through the
      // ordering checks below (every comparison against NaN is false).
      if (!std::isfinite(w) || w < 1.0) {
        Fail(error, "weight not finite or < 1");
        return std::nullopt;
      }
    }
    for (size_t i = 1; i < row.size(); ++i) {
      if (row[i] > row[i - 1]) {
        Fail(error, "weights not non-increasing in level");
        return std::nullopt;
      }
    }
  }
  int64_t len = 0;
  if (!(is >> len) || len < 0) {
    Fail(error, "bad trace length");
    return std::nullopt;
  }
  return TraceHeader{Instance(n, k, ell, std::move(weights)), len};
}

std::optional<Trace> ReadTrace(std::istream& is, std::string* error) {
  std::optional<TraceHeader> header = ReadTraceHeader(is, error);
  if (!header) return std::nullopt;
  const int64_t len = header->length;
  Trace trace{std::move(header->instance), {}};
  trace.requests.reserve(static_cast<size_t>(std::min(len, kMaxReserve)));
  for (int64_t t = 0; t < len; ++t) {
    Request r;
    if (!(is >> r.page >> r.level)) {
      Fail(error, "truncated request list");
      return std::nullopt;
    }
    if (!trace.instance.valid_page(r.page) ||
        !trace.instance.valid_level(r.level)) {
      Fail(error, "request out of range");
      return std::nullopt;
    }
    trace.requests.push_back(r);
  }
  return trace;
}

std::optional<Trace> TraceFromString(const std::string& text,
                                     std::string* error) {
  std::istringstream iss(text);
  return ReadTrace(iss, error);
}

bool WriteTraceFile(const Trace& trace, const std::string& path) {
  std::ofstream ofs(path);
  if (!ofs) return false;
  WriteTrace(trace, ofs);
  return static_cast<bool>(ofs);
}

std::optional<Trace> ReadTraceFile(const std::string& path,
                                   std::string* error) {
  std::ifstream ifs(path);
  if (!ifs) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  return ReadTrace(ifs, error);
}

}  // namespace wmlp
