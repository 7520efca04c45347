// Tiny flag parsing shared by the CLI tools: --key value pairs plus bare
// --flags, with typed getters and defaults. Typed getters parse strictly:
// a malformed or trailing-junk value dies with a message naming the flag
// instead of silently reading as 0 (the old strtoll-with-no-checks
// behavior turned "--trials 1O" into "--trials 0").
#pragma once

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "telemetry/export.h"

namespace wmlp::tools {

[[noreturn]] inline void Die(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  std::exit(1);
}

class Flags {
 public:
  Flags(int argc, char** argv) {
    std::vector<std::string>* list = nullptr;
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        if (list != nullptr) list->push_back(arg);
        continue;
      }
      arg = arg.substr(2);
      list = &lists_[arg];
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg] = argv[++i];
        list->push_back(values_[arg]);
      } else {
        values_[arg] = "";
      }
    }
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  // Every value after --key up to the next flag, for list flags such as
  // `wmlp_stats --require-nonzero A B C`; GetString sees only the first.
  std::vector<std::string> GetList(const std::string& key) const {
    const auto it = lists_.find(key);
    return it == lists_.end() ? std::vector<std::string>{} : it->second;
  }

  std::string GetString(const std::string& key,
                        const std::string& def = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }

  int64_t GetInt(const std::string& key, int64_t def) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return def;
    const std::string& text = it->second;
    int64_t value = 0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || end != text.data() + text.size()) {
      Die("--" + key + " expects an integer, got '" + text + "'");
    }
    return value;
  }

  double GetDouble(const std::string& key, double def) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return def;
    const std::string& text = it->second;
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (errno != 0 || end != text.c_str() + text.size() || text.empty()) {
      Die("--" + key + " expects a number, got '" + text + "'");
    }
    return value;
  }

  // Range-checked getters — the convention for every numeric flag with a
  // meaningful domain. Bounds are inclusive, checked against the DEFAULT
  // too (a default outside its own advertised range is a programmer
  // error worth dying loudly over), and the message names flag, bounds,
  // and offending value so "--trials 0" explains itself.
  int64_t GetIntInRange(const std::string& key, int64_t def, int64_t lo,
                        int64_t hi) const {
    const int64_t value = GetInt(key, def);
    if (value < lo || value > hi) {
      Die("--" + key + " must be in [" + std::to_string(lo) + ", " +
          std::to_string(hi) + "], got " + std::to_string(value));
    }
    return value;
  }

  // NaN fails both bound tests, so it is rejected by construction.
  double GetDoubleInRange(const std::string& key, double def, double lo,
                          double hi) const {
    const double value = GetDouble(key, def);
    if (!(value >= lo && value <= hi)) {
      Die("--" + key + " must be in [" + std::to_string(lo) + ", " +
          std::to_string(hi) + "], got " + std::to_string(value));
    }
    return value;
  }

 private:
  std::map<std::string, std::string> values_;
  std::map<std::string, std::vector<std::string>> lists_;
};

// The shared telemetry surface every instrumented tool accepts:
// --telemetry-out/--trace-out/--stats-interval (PR 5) plus the
// observability plane — --sample-interval/--sample-retention (time-series
// sampler), --http-port/--http-port-file (scrape endpoint). Dies on
// invalid combinations so every tool rejects them identically; the result
// is safe to hand straight to telemetry::TelemetrySession.
inline telemetry::TelemetryRunOptions ParseTelemetryFlags(
    const Flags& flags) {
  telemetry::TelemetryRunOptions options;
  options.telemetry_out = flags.GetString("telemetry-out");
  options.trace_out = flags.GetString("trace-out");
  options.stats_interval = flags.GetDouble("stats-interval", 0.0);
  options.sample_interval = flags.GetDouble("sample-interval", 0.0);
  options.sample_retention =
      flags.GetInt("sample-retention", options.sample_retention);
  // A bare `--http-port` (no value) asks for an ephemeral port, same as 0.
  if (flags.Has("http-port") && flags.GetString("http-port").empty()) {
    options.http_port = 0;
  } else {
    options.http_port = static_cast<int>(flags.GetInt("http-port", -1));
  }
  options.http_port_file = flags.GetString("http-port-file");
  const std::string err = telemetry::ValidateTelemetryRunOptions(options);
  if (!err.empty()) Die(err);
  return options;
}

// Constructor-time failures (port already bound, unwritable port file)
// that ValidateTelemetryRunOptions cannot see. Call right after creating
// the session.
inline void DieOnSessionStartError(
    const telemetry::TelemetrySession& session) {
  if (!session.start_error().empty()) Die(session.start_error());
}

}  // namespace wmlp::tools
