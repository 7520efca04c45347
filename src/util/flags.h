// Strict command-line flags, the one parser every binary uses. A binary
// declares each flag it accepts as a value (--name VALUE), a switch
// (--name) or a list (--name V1 [V2 ...], up to the next --flag). An
// undeclared flag, a positional argument, a repeated flag or a missing
// value exits 2 naming the offending token, so a typo never falls back to
// a default; there is no --name=value spelling. The typed getters parse
// strictly and exit 1 naming the flag: "--trials 1O" is an error, not 0.
#pragma once

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

namespace wmlp::cli {

[[noreturn]] inline void Die(const std::string& message, int code = 1) {
  std::cerr << "error: " << message << "\n";
  std::exit(code);
}

// The number rule of every double read from a command line or a policy
// spec — a flag's value, a spec value, wmlp_tracegen's --mix rw:<x>: the
// whole token is one finite number. strtod alone would skip leading
// whitespace, stop at trailing junk ("0.3xyz") or an embedded NUL, and
// accept "nan" and "inf" (an overflow reads as inf).
inline bool ParseNumber(const std::string& text, double* value) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  *value = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size() && std::isfinite(*value);
}

struct FlagSpec {
  std::vector<std::string> values = {};
  std::vector<std::string> switches = {};
  std::vector<std::string> lists = {};
};

class Flags {
 public:
  Flags(int argc, char** argv, const FlagSpec& spec) {
    for (const auto& name : spec.values) kinds_[name] = Kind::kValue;
    for (const auto& name : spec.switches) kinds_[name] = Kind::kSwitch;
    for (const auto& name : spec.lists) kinds_[name] = Kind::kList;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (!IsFlag(arg)) Die("unexpected argument '" + arg + "'", 2);
      const auto kind = kinds_.find(arg.substr(2));
      if (kind == kinds_.end()) Die("unknown flag '" + arg + "'", 2);
      const auto [it, inserted] = given_.try_emplace(kind->first);
      if (!inserted) Die("repeated flag '" + arg + "'", 2);
      if (kind->second == Kind::kSwitch) continue;
      while (i + 1 < argc && !IsFlag(argv[i + 1])) {
        it->second.push_back(argv[++i]);
        if (kind->second == Kind::kValue) break;
      }
      if (it->second.empty()) Die("missing value for '" + arg + "'", 2);
    }
  }

  bool Has(const std::string& name) const {
    Declared(name);
    return given_.count(name) > 0;
  }

  std::vector<std::string> GetList(const std::string& name) const {
    Declared(name);
    const auto it = given_.find(name);
    return it == given_.end() ? std::vector<std::string>{} : it->second;
  }

  std::string GetString(const std::string& name,
                        const std::string& def = "") const {
    const std::string* text = Value(name);
    return text == nullptr ? def : *text;
  }

  int64_t GetInt(const std::string& name, int64_t def) const {
    const std::string* text = Value(name);
    if (text == nullptr) return def;
    int64_t value = 0;
    const auto [end, ec] =
        std::from_chars(text->data(), text->data() + text->size(), value);
    if (ec != std::errc{} || end != text->data() + text->size()) {
      Die("--" + name + " expects an integer, got '" + *text + "'");
    }
    return value;
  }

  double GetDouble(const std::string& name, double def) const {
    const std::string* text = Value(name);
    if (text == nullptr) return def;
    double value = 0.0;
    if (!ParseNumber(*text, &value)) {
      Die("--" + name + " expects a number, got '" + *text + "'");
    }
    return value;
  }

  // Bounds are inclusive and apply to the default too, and the message
  // names flag, bounds and value, so "--trials 0" explains itself.
  int64_t GetIntInRange(const std::string& name, int64_t def, int64_t lo,
                        int64_t hi) const {
    return InRange(name, GetInt(name, def), lo, hi);
  }
  double GetDoubleInRange(const std::string& name, double def, double lo,
                          double hi) const {
    return InRange(name, GetDouble(name, def), lo, hi);
  }

 private:
  enum class Kind { kValue, kSwitch, kList };

  // NaN fails both bound tests, so it is rejected by construction.
  template <typename T>
  static T InRange(const std::string& name, T value, T lo, T hi) {
    if (!(value >= lo && value <= hi)) {
      Die("--" + name + " must be in [" + std::to_string(lo) + ", " +
          std::to_string(hi) + "], got " + std::to_string(value));
    }
    return value;
  }

  static bool IsFlag(const std::string& token) {
    return token.rfind("--", 0) == 0;
  }

  // Reading a flag the binary never declared is a bug in the binary: the
  // user's spelling of it could never reach the getter.
  void Declared(const std::string& name) const {
    if (kinds_.count(name) == 0) {
      std::cerr << "flag --" << name << " read but never declared\n";
      std::abort();
    }
  }

  const std::string* Value(const std::string& name) const {
    Declared(name);
    const auto it = given_.find(name);
    return it == given_.end() || it->second.empty() ? nullptr
                                                    : &it->second.front();
  }

  std::map<std::string, Kind> kinds_;
  std::map<std::string, std::vector<std::string>> given_;
};

}  // namespace wmlp::cli
