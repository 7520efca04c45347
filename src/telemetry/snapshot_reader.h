// The one reader and validator of the telemetry file formats: the
// "wmlp-telemetry-snapshot-v1" snapshot (--telemetry-out, /vars) and the
// Chrome trace_event file (--trace-out). `wmlp_stats --check` runs it on
// files, wmlp_stats and wmlp_top read snapshots through it, and the tests
// pin its rules (tests/snapshot_reader_test.cpp).
//
// The repo deliberately has no external JSON dependency; underneath is a
// small strict recursive-descent parser covering exactly what the
// exporters emit (objects, arrays, strings with the common escapes, JSON
// numbers, booleans, null). It is NOT a general-purpose parser: no
// \uXXXX beyond ASCII, a 256-deep nesting cap, and duplicate object keys
// rejected (our exporters never emit them, so a duplicate means a corrupt
// or hand-edited file).
//
// Snapshot rules, beyond the shape of each field:
//   * metric and series names are non-empty; metric names are unique;
//   * counter values, histogram counts, bucket counts, hw counters,
//     retention (>= 2), ticks, window_count and threads are non-negative
//     integer literals, and open_fds is an integer >= -1;
//   * uptime, rss/vm bytes, cpu%, utime and stime are >= 0, and the
//     sampler period is > 0;
//   * a pow2 histogram has 64 buckets and no bounds; an explicit one has
//     strictly increasing bounds and one bucket more than bounds; the
//     buckets sum to the histogram's count;
//   * a series has as many times as values, no more than retention,
//     non-decreasing times, one rate fewer than times (or none), and a
//     quantile block (window_count, p50, p99, p999) that is all or none
//     and only on histograms.
// Trace rules: every event is a complete event ("ph": "X") with a
// non-empty name, a string category, non-negative integer pid and tid,
// and non-negative ts and dur.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/system_stats.h"
#include "telemetry/telemetry.h"
#include "telemetry/timeseries.h"

namespace wmlp::telemetry {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  // A number written as an integer literal (no fraction or exponent) also
  // keeps its exact value when it fits: int_value in [-2^63, 2^63),
  // uint_value in [0, 2^64). Integer fields read these, never the double.
  std::optional<int64_t> int_value;
  std::optional<uint64_t> uint_value;
  std::string string_value;
  std::vector<JsonValue> array;
  // Insertion order is irrelevant for our documents; a sorted map keeps
  // lookups simple.
  std::map<std::string, JsonValue> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  // Returns nullptr when missing or not an object.
  const JsonValue* Find(const std::string& key) const;
};

// Parses exactly one JSON document (trailing non-whitespace is an error).
// Returns false with a position-annotated message in `*err` on failure.
bool ParseJson(std::string_view text, JsonValue* out, std::string* err);

// A loaded snapshot file: header fields + per-metric values reusing
// MetricSnapshot from telemetry.h, plus the optional observability-plane
// sections (reusing the sampler/collector structs they were exported
// from). `has_timeseries` / `has_system` say whether the section appeared;
// when present it was fully validated.
struct SnapshotFile {
  std::string schema;
  bool telemetry_compiled = false;
  double uptime_seconds = 0.0;
  std::vector<MetricSnapshot> metrics;
  bool has_timeseries = false;
  SamplerSnapshot timeseries;
  bool has_system = false;
  SystemSample system;
};

// Parses and validates a snapshot document from text / from a file.
// Returns false with the first broken rule in `*err`.
bool ParseSnapshot(std::string_view text, SnapshotFile* out, std::string* err);
bool ReadSnapshotFile(const std::string& path, SnapshotFile* out,
                      std::string* err);

// Validates a trace_event document from text / from a file and stores its
// event count in `*events`.
bool ParseTrace(std::string_view text, std::size_t* events, std::string* err);
bool ReadTraceFile(const std::string& path, std::size_t* events,
                   std::string* err);

}  // namespace wmlp::telemetry
