// wmlp_lint: the project determinism / hot-path checker (rules in
// lint/lint.h, contract in docs/ARCHITECTURE.md §12).
//
// Usage (normally via scripts/run_wmlp_lint.sh):
//   wmlp_lint --root <repo> [--compile-db <compile_commands.json>]
//   wmlp_lint --root <repo> --files a.cpp b.h [--as-dir src/core]
//   wmlp_lint --list-rules
//
// With --compile-db, the linted set is the db's in-tree sources unioned
// with every header under <root>/src (headers never appear as "file"
// entries); without it, the whole <root>/src tree. --files overrides
// both and lints exactly the named files; --as-dir reports them as if
// they lived in the given directory, which is how the fixture tests
// exercise directory-scoped rules on TUs that live under tests/.
//
// Output: one `path:line: [rule-id] message` per finding, sorted.
// Exit codes: 0 clean, 1 findings, 2 usage error (util/flags.h: an
// unknown, repeated or value-less flag, or a stray argument).
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  const wmlp::cli::Flags flags(
      argc, argv,
      {.values = {"root", "compile-db", "as-dir"},
       .switches = {"list-rules"},
       .lists = {"files"}});
  const std::string root = flags.GetString("root");
  const std::string compile_db = flags.GetString("compile-db");
  const std::string as_dir = flags.GetString("as-dir");
  const std::vector<std::string> files = flags.GetList("files");

  if (flags.Has("list-rules")) {
    for (const std::string& rule : wmlp::lint::RuleIds()) {
      std::cout << rule << "\n";
    }
    return 0;
  }
  if (root.empty()) wmlp::cli::Die("--root is required", 2);

  std::vector<wmlp::lint::Finding> findings;
  if (!files.empty()) {
    if (as_dir.empty()) {
      findings = wmlp::lint::LintFiles(root, files);
    } else {
      // Lint each file as if it lived under as_dir, so the
      // directory-scoped rules (unordered-iter, kernel-parity) apply to
      // fixture TUs stored elsewhere. The path must be synthesized
      // BEFORE linting — the rules key off it.
      for (const std::string& file : files) {
        std::ifstream in(file, std::ios::binary);
        if (!in) {
          std::cerr << "error: cannot open " << file << "\n";
          return 2;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        const auto slash = file.rfind('/');
        const std::string synthetic =
            as_dir + "/" +
            (slash == std::string::npos ? file : file.substr(slash + 1));
        std::vector<wmlp::lint::Finding> file_findings =
            wmlp::lint::LintSource(synthetic, buf.str());
        findings.insert(findings.end(), file_findings.begin(),
                        file_findings.end());
      }
    }
  } else {
    // Union the compile db's in-tree sources with the src/ tree walk:
    // the db contributes exactly what the build compiles, the walk adds
    // headers and any source temporarily out of the build.
    std::set<std::string> set;
    for (const std::string& f : wmlp::lint::CollectTree(root)) {
      set.insert(f);
    }
    if (!compile_db.empty()) {
      const std::string src_prefix = root + "/src/";
      for (const std::string& f : wmlp::lint::ReadCompileDb(compile_db)) {
        if (f.rfind(src_prefix, 0) == 0) set.insert(f);
      }
    }
    findings = wmlp::lint::LintFiles(
        root, std::vector<std::string>(set.begin(), set.end()));
  }

  for (const wmlp::lint::Finding& f : findings) {
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  }
  if (!findings.empty()) {
    std::cerr << "wmlp_lint: " << findings.size() << " finding(s)\n";
    return 1;
  }
  std::cout << "wmlp_lint: clean\n";
  return 0;
}

// The fixture TUs under tests/lint_fixtures are linted, never linked, so
// wmlp_lint itself needs no dependency on the wmlp libraries.
