#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string_view>

namespace wmlp::lint {

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Source preparation.
// ---------------------------------------------------------------------------

// Blanks comments, string literals, and char literals with spaces while
// preserving every newline, so rule regexes never match quoted or
// commented text and findings keep their true line numbers. Raw strings
// are handled for the default R"(...)"  and custom-delimiter forms.
std::string StripCommentsAndStrings(const std::string& src) {
  std::string out = src;
  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw };
  State state = State::kCode;
  std::string raw_end;  // )delim" terminator while in a raw string
  for (size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   src[i - 1])) &&
                               src[i - 1] != '_'))) {
          const size_t open = src.find('(', i + 2);
          if (open != std::string::npos) {
            raw_end = ")" + src.substr(i + 2, open - i - 2) + "\"";
            for (size_t j = i; j <= open; ++j) out[j] = ' ';
            i = open;
            state = State::kRaw;
          }
        } else if (c == '"') {
          state = State::kString;
          out[i] = ' ';
        } else if (c == '\'') {
          state = State::kChar;
          out[i] = ' ';
        }
        break;
      case State::kLine:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
      case State::kChar:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if ((state == State::kString && c == '"') ||
                   (state == State::kChar && c == '\'')) {
          state = State::kCode;
          out[i] = ' ';
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kRaw:
        if (src.compare(i, raw_end.size(), raw_end) == 0) {
          for (size_t j = i; j < i + raw_end.size(); ++j) out[j] = ' ';
          i += raw_end.size() - 1;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string::size_type start = 0;
  while (start <= text.size()) {
    const auto end = text.find('\n', start);
    if (end == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

// ---------------------------------------------------------------------------
// Path classification.
// ---------------------------------------------------------------------------

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

bool InDeterminismContractDir(std::string_view rel) {
  return StartsWith(rel, "src/core/") || StartsWith(rel, "src/server/") ||
         StartsWith(rel, "src/engine/") || StartsWith(rel, "src/sim/");
}

bool IsBenchFile(std::string_view rel) {
  const auto slash = rel.rfind('/');
  const std::string_view base =
      slash == std::string_view::npos ? rel : rel.substr(slash + 1);
  return base.find("bench") != std::string_view::npos;
}

// ---------------------------------------------------------------------------
// The per-file pass.
// ---------------------------------------------------------------------------

struct Ctx {
  const std::string& path;
  const std::vector<std::string>& raw;       // original lines
  const std::vector<std::string>& stripped;  // comment/string-blanked lines
  std::vector<Finding>& findings;
  // (line index, rule) pairs exempted by wmlp-lint-allow comments.
  const std::set<std::pair<size_t, std::string>>& allowed;
};

void Report(Ctx& ctx, size_t line_idx, const std::string& rule,
            const std::string& message) {
  if (ctx.allowed.count({line_idx, rule}) > 0) return;
  ctx.findings.push_back(
      {ctx.path, static_cast<int>(line_idx + 1), rule, message});
}

bool IsPreprocessor(const std::string& line) {
  const auto pos = line.find_first_not_of(" \t");
  return pos != std::string::npos && line[pos] == '#';
}

const std::regex& RngRe() {
  static const std::regex re(
      R"(\bstd\s*::\s*rand\b|\bsrand\s*\(|\brand\s*\(|\brandom_device\b)");
  return re;
}

void CheckDeterminismRng(Ctx& ctx) {
  if (ctx.path.find("util/rng.h") != std::string::npos) return;
  for (size_t i = 0; i < ctx.stripped.size(); ++i) {
    if (std::regex_search(ctx.stripped[i], RngRe())) {
      Report(ctx, i, "determinism-rng",
             "unseeded/global RNG; route randomness through wmlp::Rng "
             "(util/rng.h)");
    }
  }
}

void CheckWallClock(Ctx& ctx) {
  if (StartsWith(ctx.path, "src/telemetry/") || IsBenchFile(ctx.path)) {
    return;
  }
  static const std::regex re(R"(\b(?:system_clock|steady_clock)\b)");
  for (size_t i = 0; i < ctx.stripped.size(); ++i) {
    if (std::regex_search(ctx.stripped[i], re)) {
      Report(ctx, i, "wall-clock",
             "wall-clock read outside src/telemetry/bench code; serve "
             "decisions must not depend on real time");
    }
  }
}

void CheckFloatEq(Ctx& ctx) {
  // A floating literal: 1.0, .5, 1., 1e-9, 1.5e3, 2.0f, 3f — but not a
  // bare integer.
  static const std::string kFloat =
      R"((?:\d+\.\d*|\.\d+|\d+\.)(?:[eE][+-]?\d+)?[fFlL]?|\d+[eE][+-]?\d+[fFlL]?|\d+[fF]\b)";
  static const std::regex rhs("(==|!=)\\s*[-+]?(?:" + kFloat + ")");
  static const std::regex lhs("(?:" + kFloat + ")\\s*(==|!=)");
  for (size_t i = 0; i < ctx.stripped.size(); ++i) {
    const std::string& line = ctx.stripped[i];
    if (std::regex_search(line, rhs) || std::regex_search(line, lhs)) {
      Report(ctx, i, "float-eq",
             "exact comparison against a floating-point literal; compare "
             "an integral representation or an epsilon band instead");
    }
  }
}

void CheckUnorderedIter(Ctx& ctx, const std::string& header_context) {
  if (!InDeterminismContractDir(ctx.path)) return;
  // Names declared with an unordered container type, in this file and in
  // the paired header (so members participate). Single-line declarations
  // only — the repo's style keeps declarator and name on one line.
  static const std::regex decl_re(
      R"(\bunordered_(?:map|set)\s*<.*>\s*[&*]?\s*(\w+)\s*[;={(,)])");
  std::set<std::string> unordered_names;
  auto scan_decls = [&](const std::string& text) {
    for (const std::string& line : SplitLines(text)) {
      auto begin =
          std::sregex_iterator(line.begin(), line.end(), decl_re);
      for (auto it = begin; it != std::sregex_iterator(); ++it) {
        unordered_names.insert((*it)[1].str());
      }
    }
  };
  scan_decls(StripCommentsAndStrings(header_context));
  for (const std::string& line : ctx.stripped) {
    auto begin = std::sregex_iterator(line.begin(), line.end(), decl_re);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      unordered_names.insert((*it)[1].str());
    }
  }

  static const std::regex range_for_re(R"(\bfor\s*\([^;)]*:\s*([^)]+)\))");
  for (size_t i = 0; i < ctx.stripped.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(ctx.stripped[i], m, range_for_re)) continue;
    const std::string range_expr = m[1].str();
    bool flagged = range_expr.find("unordered_") != std::string::npos;
    if (!flagged) {
      static const std::regex ident_re(R"(\b(\w+)\b)");
      auto begin = std::sregex_iterator(range_expr.begin(),
                                        range_expr.end(), ident_re);
      for (auto it = begin; it != std::sregex_iterator(); ++it) {
        if (unordered_names.count((*it)[1].str()) > 0) {
          flagged = true;
          break;
        }
      }
    }
    if (flagged) {
      Report(ctx, i, "unordered-iter",
             "range-iteration over an unordered container in a "
             "determinism-contract dir; iterate a sorted copy or an "
             "index-ordered structure");
    }
  }
}

// Structural pass: tracks brace depth to know whether a line sits inside
// a WMLP_HOT function body.
void CheckStructural(Ctx& ctx) {
  int depth = 0;
  int hot_depth = -1;  // body depth of the innermost WMLP_HOT function
  bool hot_armed = false;

  for (size_t i = 0; i < ctx.stripped.size(); ++i) {
    const std::string& line = ctx.stripped[i];
    if (IsPreprocessor(line)) continue;
    if (line.find("WMLP_HOT") != std::string::npos && hot_depth < 0) {
      hot_armed = true;
    }

    // hot-check-msg: WMLP_CHECK_MSG inside a WMLP_HOT body.
    if (hot_depth >= 0 && depth >= hot_depth &&
        line.find("WMLP_CHECK_MSG") != std::string::npos) {
      Report(ctx, i, "hot-check-msg",
             "WMLP_CHECK_MSG inside a WMLP_HOT function: the message's "
             "ostringstream allocates at the call site; use WMLP_CHECK "
             "plus a WMLP_COLD [[noreturn]] reporter");
    }

    for (const char c : line) {
      if (c == '{') {
        ++depth;
        if (hot_armed) {
          hot_depth = depth;
          hot_armed = false;
        }
      } else if (c == '}') {
        if (hot_depth == depth) hot_depth = -1;
        --depth;
      } else if (c == ';') {
        // Nothing legitimate separates a pending marker from its body
        // brace with a semicolon: this is a mere declaration (a WMLP_HOT
        // prototype).
        hot_armed = false;
      }
    }
  }
}

// kernel-parity: every *Batch entry point appearing in a src/kernels/ TU
// must have its *BatchScalar twin in the same TU — the bitwise-parity
// contract (docs/ARCHITECTURE.md §13) that ForceScalar() and the lockstep
// tests rely on. Heuristic by identifier: any FooBatch occurrence without
// a FooBatchScalar occurrence anywhere in the TU is flagged at its first
// occurrence; a mere call to the scalar twin counts as presence, which is
// exactly the dispatch-wrapper shape the kernel TUs use.
void CheckKernelParity(Ctx& ctx) {
  if (!StartsWith(ctx.path, "src/kernels/")) return;
  static const std::string_view kCpp = ".cpp";
  if (ctx.path.size() < kCpp.size() ||
      ctx.path.compare(ctx.path.size() - kCpp.size(), kCpp.size(),
                       kCpp) != 0) {
    return;
  }
  static const std::regex name_re(R"(\b([A-Za-z_]\w*?)Batch(Scalar)?\s*\()");
  std::set<std::string> scalar_names;
  std::map<std::string, size_t> first_batch_line;
  for (size_t i = 0; i < ctx.stripped.size(); ++i) {
    const std::string& line = ctx.stripped[i];
    for (auto it = std::sregex_iterator(line.begin(), line.end(), name_re);
         it != std::sregex_iterator(); ++it) {
      const std::string base = (*it)[1].str();
      if ((*it)[2].matched) {
        scalar_names.insert(base);
      } else {
        first_batch_line.emplace(base, i);
      }
    }
  }
  for (const auto& [base, line] : first_batch_line) {
    if (scalar_names.count(base) > 0) continue;
    Report(ctx, line, "kernel-parity",
           base + "Batch has no " + base +
               "BatchScalar twin in this TU; every SIMD kernel entry "
               "point needs its scalar reference beside it "
               "(docs/ARCHITECTURE.md section 13)");
  }
}

std::set<std::pair<size_t, std::string>> ParseSuppressions(
    const std::vector<std::string>& raw_lines) {
  static const std::regex allow_re(R"(wmlp-lint-allow\(([a-z-]+)\))");
  std::set<std::pair<size_t, std::string>> allowed;
  for (size_t i = 0; i < raw_lines.size(); ++i) {
    auto begin = std::sregex_iterator(raw_lines[i].begin(),
                                      raw_lines[i].end(), allow_re);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      const std::string rule = (*it)[1].str();
      allowed.insert({i, rule});
      allowed.insert({i + 1, rule});
    }
  }
  return allowed;
}

}  // namespace

std::vector<std::string> RuleIds() {
  return {"determinism-rng", "unordered-iter", "wall-clock", "float-eq",
          "hot-check-msg", "kernel-parity"};
}

std::vector<Finding> LintSource(const std::string& path,
                                const std::string& content,
                                const std::string& header_context) {
  const std::vector<std::string> raw = SplitLines(content);
  const std::vector<std::string> stripped =
      SplitLines(StripCommentsAndStrings(content));
  const auto allowed = ParseSuppressions(raw);

  std::vector<Finding> findings;
  Ctx ctx{path, raw, stripped, findings, allowed};
  CheckDeterminismRng(ctx);
  CheckWallClock(ctx);
  CheckFloatEq(ctx);
  CheckUnorderedIter(ctx, header_context);
  CheckStructural(ctx);
  CheckKernelParity(ctx);

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return findings;
}

namespace {

std::string ReadFileOrEmpty(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return "";
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string RelativeTo(const std::string& root, const std::string& file) {
  std::error_code ec;
  const fs::path rel = fs::relative(file, root, ec);
  if (ec || rel.empty() || *rel.begin() == "..") return file;
  return rel.generic_string();
}

}  // namespace

std::vector<Finding> LintFiles(const std::string& root,
                               const std::vector<std::string>& files) {
  std::vector<Finding> findings;
  for (const std::string& file : files) {
    const std::string rel = RelativeTo(root, file);
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      findings.push_back({rel, 0, "read-error", "cannot open file"});
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    // For a .cpp, the paired .h contributes member declarations to
    // unordered-iter tracking (the header itself is linted separately).
    std::string header_context;
    fs::path p(file);
    if (p.extension() == ".cpp") {
      header_context = ReadFileOrEmpty(p.replace_extension(".h"));
    }
    std::vector<Finding> file_findings =
        LintSource(rel, buf.str(), header_context);
    findings.insert(findings.end(), file_findings.begin(),
                    file_findings.end());
  }
  return findings;
}

std::vector<std::string> CollectTree(const std::string& root) {
  std::vector<std::string> files;
  const fs::path src = fs::path(root) / "src";
  std::error_code ec;
  for (fs::recursive_directory_iterator it(src, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file()) continue;
    const fs::path& p = it->path();
    if (p.extension() == ".h" || p.extension() == ".cpp") {
      files.push_back(p.generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<std::string> ReadCompileDb(const std::string& db_path) {
  const std::string text = ReadFileOrEmpty(db_path);
  std::vector<std::string> files;
  static const std::regex file_re(R"re("file"\s*:\s*"([^"]+)")re");
  auto begin = std::sregex_iterator(text.begin(), text.end(), file_re);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    files.push_back((*it)[1].str());
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

}  // namespace wmlp::lint
