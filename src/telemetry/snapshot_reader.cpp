#include "telemetry/snapshot_reader.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

namespace wmlp::telemetry {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* err) : text_(text), err_(err) {}

  bool ParseDocument(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out, 0)) return false;
    SkipWs();
    if (pos_ != text_.size()) return Fail("trailing characters after document");
    return true;
  }

 private:
  static constexpr int kMaxDepth = 256;

  bool Fail(const std::string& what) {
    if (err_ && err_->empty()) {
      std::ostringstream os;
      os << "JSON parse error at offset " << pos_ << ": " << what;
      *err_ = os.str();
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Eat(char expected) {
    if (pos_ >= text_.size() || text_[pos_] != expected) {
      return Fail(std::string("expected '") + expected + "'");
    }
    ++pos_;
    return true;
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{': return ParseObject(out, depth);
      case '[': return ParseArray(out, depth);
      case '"': {
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string_value);
      }
      case 't':
        if (text_.substr(pos_, 4) == "true") {
          pos_ += 4;
          out->kind = JsonValue::Kind::kBool;
          out->bool_value = true;
          return true;
        }
        return Fail("bad literal");
      case 'f':
        if (text_.substr(pos_, 5) == "false") {
          pos_ += 5;
          out->kind = JsonValue::Kind::kBool;
          out->bool_value = false;
          return true;
        }
        return Fail("bad literal");
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          out->kind = JsonValue::Kind::kNull;
          return true;
        }
        return Fail("bad literal");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kObject;
    if (!Eat('{')) return false;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (!Eat(':')) return false;
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      if (out->object.count(key) != 0) {
        return Fail("duplicate object key '" + key + "'");
      }
      out->object[key] = std::move(value);
      SkipWs();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return Eat('}');
    }
  }

  bool ParseArray(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kArray;
    if (!Eat('[')) return false;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      out->array.push_back(std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return Eat(']');
    }
  }

  bool ParseString(std::string* out) {
    if (!Eat('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("raw control character in string");
      }
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) return Fail("truncated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Fail("bad \\u escape");
          }
          // Exporters only escape control characters, which are ASCII; wider
          // code points would need UTF-8 encoding this reader doesn't do.
          if (code > 0x7f) return Fail("\\u escape beyond ASCII unsupported");
          *out += static_cast<char>(code);
          break;
        }
        default: return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  // Strict JSON number grammar: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  std::size_t SkipDigits() {
    const std::size_t from = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ - from;
  }

  bool ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const std::size_t int_digits = SkipDigits();
    if (int_digits == 0) return Fail("expected a value");
    if (int_digits > 1 && text_[pos_ - int_digits] == '0') {
      return Fail("leading zero in number");
    }
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      integral = false;
      if (SkipDigits() == 0) return Fail("bad fraction in number");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      integral = false;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (SkipDigits() == 0) return Fail("bad exponent in number");
    }
    const std::string token(text_.substr(start, pos_ - start));
    const double value = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(value)) {
      return Fail("number out of range '" + token + "'");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number_value = value;
    if (integral) {
      // Exact values for integer literals that fit; "-0" counts as 0.
      const char* first = token.data();
      const char* last = first + token.size();
      int64_t as_int = 0;
      if (const auto r = std::from_chars(first, last, as_int);
          r.ec == std::errc{} && r.ptr == last) {
        out->int_value = as_int;
        if (as_int >= 0) out->uint_value = static_cast<uint64_t>(as_int);
      }
      uint64_t as_uint = 0;
      if (const auto r = std::from_chars(first, last, as_uint);
          token[0] != '-' && r.ec == std::errc{} && r.ptr == last) {
        out->uint_value = as_uint;
      }
    }
    return true;
  }

  std::string_view text_;
  std::string* err_;
  std::size_t pos_ = 0;
};

// Every rule below rejects through Reject: `*err` names the document
// ("snapshot" or "trace"), where in it, and the broken rule.
bool Reject(std::string* err, const std::string& what) {
  if (err) *err = what;
  return false;
}

bool BadField(const std::string& where, const std::string& key,
              const std::string& rule, std::string* err) {
  return Reject(err, where + ": field '" + key + "' " + rule);
}

// Typed field readers. Integers are read from the literal's exact value
// (JsonValue::int_value / uint_value), never cast from the double, so a
// fraction, an exponent, a sign or a value past 64 bits is rejected before
// any conversion.
bool GetString(const JsonValue& obj, const std::string& key,
               const std::string& where, std::string* out, std::string* err) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kString) {
    return BadField(where, key, "must be a string", err);
  }
  *out = v->string_value;
  return true;
}

bool GetName(const JsonValue& obj, const std::string& where, std::string* out,
             std::string* err) {
  if (!GetString(obj, "name", where, out, err)) return false;
  if (out->empty()) return BadField(where, "name", "must not be empty", err);
  return true;
}

bool GetBool(const JsonValue& obj, const std::string& key,
             const std::string& where, bool* out, std::string* err) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kBool) {
    return BadField(where, key, "must be a boolean", err);
  }
  *out = v->bool_value;
  return true;
}

bool GetNumber(const JsonValue& obj, const std::string& key,
               const std::string& where, double* out, std::string* err) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) {
    return BadField(where, key, "must be a number", err);
  }
  *out = v->number_value;
  return true;
}

bool GetNonNegative(const JsonValue& obj, const std::string& key,
                    const std::string& where, double* out, std::string* err) {
  if (!GetNumber(obj, key, where, out, err)) return false;
  if (*out < 0.0) return BadField(where, key, "must be >= 0", err);
  return true;
}

bool IsCount(const JsonValue& v) {
  return v.kind == JsonValue::Kind::kNumber && v.uint_value.has_value();
}

bool GetCount(const JsonValue& obj, const std::string& key,
              const std::string& where, uint64_t* out, std::string* err) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || !IsCount(*v)) {
    return BadField(where, key, "must be a non-negative integer", err);
  }
  *out = *v->uint_value;
  return true;
}

bool GetInt(const JsonValue& obj, const std::string& key, int64_t min,
            const std::string& where, int64_t* out, std::string* err) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber ||
      !v->int_value.has_value() || *v->int_value < min) {
    return BadField(where, key,
                    "must be an integer >= " + std::to_string(min), err);
  }
  *out = *v->int_value;
  return true;
}

// obj[key] as an array of numbers. When `required` is false a missing key
// reads as empty; a present key of the wrong shape is always an error.
bool GetNumberArray(const JsonValue& obj, const std::string& key,
                    bool required, const std::string& where,
                    std::vector<double>* out, std::string* err) {
  out->clear();
  const JsonValue* v = obj.Find(key);
  if (v == nullptr && !required) return true;
  if (v == nullptr || !v->is_array()) {
    return BadField(where, key, "must be an array of numbers", err);
  }
  for (const JsonValue& item : v->array) {
    if (item.kind != JsonValue::Kind::kNumber) {
      return BadField(where, key, "must be an array of numbers", err);
    }
    out->push_back(item.number_value);
  }
  return true;
}

bool GetType(const JsonValue& obj, const std::string& where, MetricType* out,
             std::string* err) {
  std::string type;
  if (!GetString(obj, "type", where, &type, err)) return false;
  if (type == "counter") *out = MetricType::kCounter;
  else if (type == "gauge") *out = MetricType::kGauge;
  else if (type == "histogram") *out = MetricType::kHistogram;
  else return Reject(err, where + ": unknown type '" + type + "'");
  return true;
}

bool ParseHistogram(const JsonValue& node, const std::string& where,
                    MetricSnapshot* out, std::string* err) {
  if (!GetCount(node, "count", where, &out->hist_count, err) ||
      !GetNumber(node, "sum", where, &out->hist_sum, err)) {
    return false;
  }
  std::string layout;
  if (!GetString(node, "layout", where, &layout, err)) return false;
  if (layout != "pow2" && layout != "explicit") {
    return Reject(err, where + ": unknown layout '" + layout + "'");
  }
  out->pow2 = layout == "pow2";
  if (out->pow2) {
    if (node.Find("bounds") != nullptr) {
      return Reject(err, where + ": pow2 layout must not carry bounds");
    }
  } else {
    if (!GetNumberArray(node, "bounds", true, where, &out->bounds, err)) {
      return false;
    }
    for (std::size_t i = 1; i < out->bounds.size(); ++i) {
      if (out->bounds[i] <= out->bounds[i - 1]) {
        return Reject(err, where + ": bounds must be strictly increasing");
      }
    }
  }
  const JsonValue* counts = node.Find("counts");
  if (counts == nullptr || !counts->is_array()) {
    return BadField(where, "counts", "must be an array", err);
  }
  uint64_t total = 0;
  for (const JsonValue& c : counts->array) {
    if (!IsCount(c)) {
      return BadField(where, "counts", "must hold non-negative integers",
                      err);
    }
    out->bucket_counts.push_back(*c.uint_value);
    if (__builtin_add_overflow(total, *c.uint_value, &total)) {
      return Reject(err, where + ": bucket counts overflow");
    }
  }
  const std::size_t expected = out->pow2 ? 64 : out->bounds.size() + 1;
  if (out->bucket_counts.size() != expected) {
    return Reject(err, where + ": needs " + std::to_string(expected) +
                           " buckets, got " +
                           std::to_string(out->bucket_counts.size()));
  }
  if (total != out->hist_count) {
    return Reject(err, where + ": bucket counts sum to " +
                           std::to_string(total) + " but count is " +
                           std::to_string(out->hist_count));
  }
  return true;
}

bool ParseMetric(const JsonValue& node, MetricSnapshot* out,
                 std::string* err) {
  if (!node.is_object()) {
    return Reject(err, "snapshot: metric entry is not an object");
  }
  if (!GetName(node, "snapshot: metric", &out->name, err)) return false;
  const std::string where = "snapshot: metric '" + out->name + "'";
  if (!GetType(node, where, &out->type, err)) return false;
  switch (out->type) {
    case MetricType::kCounter:
      return GetCount(node, "value", where, &out->counter_value, err);
    case MetricType::kGauge:
      return GetNumber(node, "value", where, &out->gauge_value, err);
    case MetricType::kHistogram:
      return ParseHistogram(node, where, out, err);
  }
  return false;
}

bool ParseSeriesEntry(const JsonValue& node, int64_t retention,
                      MetricSeries* out, std::string* err) {
  if (!node.is_object()) {
    return Reject(err, "snapshot: timeseries entry is not an object");
  }
  if (!GetName(node, "snapshot: series", &out->name, err)) return false;
  const std::string where = "snapshot: series '" + out->name + "'";
  if (!GetType(node, where, &out->type, err) ||
      !GetNumberArray(node, "times", true, where, &out->times, err) ||
      !GetNumberArray(node, "values", true, where, &out->values, err) ||
      !GetNumberArray(node, "rates", false, where, &out->rates, err)) {
    return false;
  }
  if (out->times.size() != out->values.size()) {
    return Reject(err, where + ": times/values lengths disagree");
  }
  if (static_cast<int64_t>(out->times.size()) > retention) {
    return Reject(err, where + ": longer than retention");
  }
  if (!out->rates.empty() && out->rates.size() + 1 != out->times.size()) {
    return Reject(err, where + ": rates length must be times length - 1");
  }
  for (std::size_t i = 1; i < out->times.size(); ++i) {
    if (out->times[i] < out->times[i - 1]) {
      return Reject(err, where + ": times go backwards");
    }
  }
  // The quantile block is all or none, and only on histograms.
  int present = 0;
  for (const char* key : {"window_count", "p50", "p99", "p999"}) {
    present += node.Find(key) != nullptr ? 1 : 0;
  }
  if (present == 0) return true;
  if (out->type != MetricType::kHistogram) {
    return Reject(err, where + ": quantiles on a non-histogram series");
  }
  if (present != 4) return Reject(err, where + ": partial quantile block");
  out->has_quantiles = true;
  return GetInt(node, "window_count", 0, where, &out->window_count, err) &&
         GetNumber(node, "p50", where, &out->p50, err) &&
         GetNumber(node, "p99", where, &out->p99, err) &&
         GetNumber(node, "p999", where, &out->p999, err);
}

bool ParseTimeseriesSection(const JsonValue& node, SamplerSnapshot* out,
                            std::string* err) {
  const std::string where = "snapshot: timeseries";
  if (!node.is_object()) return Reject(err, where + " is not an object");
  if (!GetNumber(node, "period_seconds", where, &out->period_seconds, err) ||
      !GetInt(node, "retention", 2, where, &out->retention, err) ||
      !GetInt(node, "ticks", 0, where, &out->ticks, err)) {
    return false;
  }
  if (out->period_seconds <= 0.0) {
    return BadField(where, "period_seconds", "must be > 0", err);
  }
  const JsonValue* series = node.Find("series");
  if (series == nullptr || !series->is_array()) {
    return BadField(where, "series", "must be an array", err);
  }
  out->series.clear();
  for (const JsonValue& entry : series->array) {
    MetricSeries s;
    if (!ParseSeriesEntry(entry, out->retention, &s, err)) return false;
    out->series.push_back(std::move(s));
  }
  return true;
}

bool ParseSystemSection(const JsonValue& node, SystemSample* out,
                        std::string* err) {
  const std::string where = "snapshot: system";
  if (!node.is_object()) return Reject(err, where + " is not an object");
  if (!GetBool(node, "valid", where, &out->valid, err) ||
      !GetNonNegative(node, "rss_bytes", where, &out->rss_bytes, err) ||
      !GetNonNegative(node, "vm_bytes", where, &out->vm_bytes, err) ||
      !GetInt(node, "threads", 0, where, &out->threads, err) ||
      // -1 is the collector's "unavailable".
      !GetInt(node, "open_fds", -1, where, &out->open_fds, err) ||
      !GetNonNegative(node, "cpu_percent", where, &out->cpu_percent, err) ||
      !GetNonNegative(node, "utime_seconds", where, &out->utime_seconds,
                      err) ||
      !GetNonNegative(node, "stime_seconds", where, &out->stime_seconds,
                      err)) {
    return false;
  }
  const JsonValue* hw = node.Find("hw");
  if (hw == nullptr || !hw->is_object()) {
    return BadField(where, "hw", "must be an object", err);
  }
  const std::string hw_where = where + ".hw";
  return GetBool(*hw, "available", hw_where, &out->hw.available, err) &&
         GetCount(*hw, "cycles", hw_where, &out->hw.cycles, err) &&
         GetCount(*hw, "instructions", hw_where, &out->hw.instructions,
                  err) &&
         GetCount(*hw, "cache_misses", hw_where, &out->hw.cache_misses, err);
}

bool ParseTraceEvent(const JsonValue& e, std::size_t index,
                     std::string* err) {
  const std::string where = "trace: traceEvents[" + std::to_string(index) +
                            "]";
  if (!e.is_object()) return Reject(err, where + " is not an object");
  std::string name, category, phase;
  uint64_t pid = 0, tid = 0;
  double ts = 0.0, dur = 0.0;
  if (!GetName(e, where, &name, err) ||
      !GetString(e, "cat", where, &category, err) ||
      !GetString(e, "ph", where, &phase, err) ||
      !GetCount(e, "pid", where, &pid, err) ||
      !GetCount(e, "tid", where, &tid, err) ||
      !GetNonNegative(e, "ts", where, &ts, err) ||
      !GetNonNegative(e, "dur", where, &dur, err)) {
    return false;
  }
  if (phase != "X") {
    return Reject(err, where + ": phase '" + phase +
                           "' is not a complete event (\"X\")");
  }
  return true;
}

bool ReadFile(const std::string& path, std::string* out, std::string* err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Reject(err, "cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

}  // namespace

bool ParseJson(std::string_view text, JsonValue* out, std::string* err) {
  if (err) err->clear();
  Parser parser(text, err);
  return parser.ParseDocument(out);
}

bool ParseSnapshot(std::string_view text, SnapshotFile* out,
                   std::string* err) {
  JsonValue doc;
  if (!ParseJson(text, &doc, err)) return false;
  const std::string where = "snapshot";
  if (!doc.is_object()) return Reject(err, "snapshot: not an object");
  if (!GetString(doc, "schema", where, &out->schema, err)) return false;
  if (out->schema != "wmlp-telemetry-snapshot-v1") {
    return Reject(err, "snapshot: unknown schema '" + out->schema + "'");
  }
  if (!GetNonNegative(doc, "uptime_seconds", where, &out->uptime_seconds,
                      err)) {
    return false;
  }
  const JsonValue* metrics = doc.Find("metrics");
  if (metrics == nullptr || !metrics->is_array()) {
    return BadField(where, "metrics", "must be an array", err);
  }
  out->metrics.clear();
  std::set<std::string> names;
  for (const JsonValue& node : metrics->array) {
    MetricSnapshot metric;
    if (!ParseMetric(node, &metric, err)) return false;
    if (!names.insert(metric.name).second) {
      return Reject(err, "snapshot: duplicate metric name '" + metric.name +
                             "'");
    }
    out->metrics.push_back(std::move(metric));
  }
  out->has_timeseries = false;
  if (const JsonValue* ts = doc.Find("timeseries"); ts != nullptr) {
    if (!ParseTimeseriesSection(*ts, &out->timeseries, err)) return false;
    out->has_timeseries = true;
  }
  out->has_system = false;
  if (const JsonValue* sys = doc.Find("system"); sys != nullptr) {
    if (!ParseSystemSection(*sys, &out->system, err)) return false;
    out->has_system = true;
  }
  return true;
}

bool ReadSnapshotFile(const std::string& path, SnapshotFile* out,
                      std::string* err) {
  std::string text;
  return ReadFile(path, &text, err) && ParseSnapshot(text, out, err);
}

bool ParseTrace(std::string_view text, std::size_t* events,
                std::string* err) {
  JsonValue doc;
  if (!ParseJson(text, &doc, err)) return false;
  if (!doc.is_object()) return Reject(err, "trace: not an object");
  const JsonValue* list = doc.Find("traceEvents");
  if (list == nullptr || !list->is_array()) {
    return BadField("trace", "traceEvents", "must be an array", err);
  }
  for (std::size_t i = 0; i < list->array.size(); ++i) {
    if (!ParseTraceEvent(list->array[i], i, err)) return false;
  }
  *events = list->array.size();
  return true;
}

bool ReadTraceFile(const std::string& path, std::size_t* events,
                   std::string* err) {
  std::string text;
  return ReadFile(path, &text, err) && ParseTrace(text, events, err);
}

}  // namespace wmlp::telemetry
