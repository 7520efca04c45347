// wmlp_lint: project-specific static-analysis rules (the machine-checked
// half of the determinism and hot-path contracts; docs/ARCHITECTURE.md
// §12). The engine is a token-level pass over comment/string-stripped
// source — deliberately so: the invariants it guards are lexically
// recognizable (a std::rand token, a steady_clock read, a WMLP_CHECK_MSG
// between a WMLP_HOT marker's braces), which keeps the
// checker dependency-free and runnable in every environment the build
// runs in, clang or not. Type-level properties the text can't prove are
// covered by the companion gates: -Wthread-safety on the clang CI legs
// and the nm-based hot-path allocation walk
// (scripts/check_hot_path_allocs.py).
//
// Rules (ids are stable; tests/lint_fixtures has one trigger TU each):
//   determinism-rng   std::rand / srand / rand() / random_device outside
//                     util/rng.h. Seeded policy randomness must flow
//                     through wmlp::Rng.
//   unordered-iter    range-for over a std::unordered_{map,set} variable
//                     in a determinism-contract dir (src/core, src/server,
//                     src/engine, src/sim): iteration order is
//                     implementation-defined, so any trajectory derived
//                     from it breaks bitwise reproducibility.
//   wall-clock        chrono::system_clock / steady_clock outside
//                     src/telemetry and bench code: serve decisions may
//                     not depend on real time.
//   float-eq          == / != against a floating-point literal outside
//                     approved helper files; use an epsilon helper or an
//                     integral representation. (Token-level
//                     approximation: literal-free double compares are
//                     bitwise-identity idioms the repo allows, e.g.
//                     waterfill's stale-key filter.)
//   hot-check-msg     WMLP_CHECK_MSG inside a WMLP_HOT function body: the
//                     message's ostringstream allocates at the call site,
//                     inside the allocation-free tree.
//
// Suppression: a `wmlp-lint-allow(<rule-id>)` comment exempts its own
// line and the next line. Every suppression marks an intentional,
// documented exception (wall-clock throughput reporting, bitwise witness
// compares) — not a way to mute noise.
#pragma once

#include <string>
#include <vector>

namespace wmlp::lint {

struct Finding {
  std::string file;   // path as reported (relative to the lint root)
  int line = 0;       // 1-based
  std::string rule;   // stable rule id, e.g. "determinism-rng"
  std::string message;
};

// All stable rule ids, for --list-rules and fixture assertions.
std::vector<std::string> RuleIds();

// Lints one file's contents. `path` decides which directory-scoped rules
// apply and should be the path relative to the repository root (e.g.
// "src/core/waterfill.cpp"); `header_context` optionally carries the
// paired header's contents so member declarations participate in
// unordered-iter tracking.
std::vector<Finding> LintSource(const std::string& path,
                                const std::string& content,
                                const std::string& header_context = "");

// Lints files on disk. Paths may be absolute; `root` is stripped to form
// the rule-relevant relative path. Files that cannot be read produce a
// "read-error" finding rather than a crash.
std::vector<Finding> LintFiles(const std::string& root,
                               const std::vector<std::string>& files);

// Collects the lintable tree: every *.h / *.cpp under <root>/src.
std::vector<std::string> CollectTree(const std::string& root);

// Extracts the "file" entries from a compile_commands.json (minimal
// parser — the schema is flat and the build never emits escaped quotes
// in paths). Returns absolute paths as found.
std::vector<std::string> ReadCompileDb(const std::string& db_path);

}  // namespace wmlp::lint
