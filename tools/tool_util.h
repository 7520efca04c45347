// What the CLI tools share beyond the flag parser (util/flags.h): the
// telemetry flags, declared once, and their validation.
#pragma once

#include <string>

#include "telemetry/export.h"
#include "util/flags.h"

namespace wmlp::tools {

using cli::Die;
using cli::Flags;

// Adds the shared telemetry surface to a tool's flags: --telemetry-out,
// --trace-out and --stats-interval, the sampler's --sample-interval and
// --sample-retention, and the scrape endpoint's --http-port and
// --http-port-file.
inline cli::FlagSpec WithTelemetryFlags(cli::FlagSpec spec) {
  for (const char* name :
       {"telemetry-out", "trace-out", "stats-interval", "sample-interval",
        "sample-retention", "http-port", "http-port-file"}) {
    spec.values.emplace_back(name);
  }
  return spec;
}

// Reads the flags WithTelemetryFlags declares. Dies on invalid
// combinations so every tool rejects them identically; the result is safe
// to hand straight to telemetry::TelemetrySession.
inline telemetry::TelemetryRunOptions ParseTelemetryFlags(
    const Flags& flags) {
  telemetry::TelemetryRunOptions options;
  options.telemetry_out = flags.GetString("telemetry-out");
  options.trace_out = flags.GetString("trace-out");
  options.stats_interval = flags.GetDouble("stats-interval", 0.0);
  options.sample_interval = flags.GetDouble("sample-interval", 0.0);
  options.sample_retention =
      flags.GetInt("sample-retention", options.sample_retention);
  options.http_port = static_cast<int>(flags.GetInt("http-port", -1));
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
