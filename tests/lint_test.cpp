// wmlp_lint rule-engine tests (tools/lint/lint.h).
//
// A linter whose rules cannot fire is dead weight, so this mirrors
// audit_test.cpp's negative-test discipline: every fixture TU under
// tests/lint_fixtures exists to trigger exactly one rule, and the test
// asserts the exact rule id fires on the marked line. The clean fixture
// and the whole-tree scan pin the other direction: the shapes the rules
// must NOT flag (suppressed lines, tokens inside comments/strings) stay
// silent, and the shipped tree itself stays
// finding-free — the same check CI's lint job runs.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.h"

namespace wmlp::lint {
namespace {

std::string FixturePath(const std::string& name) {
  return std::string(WMLP_SOURCE_DIR) + "/tests/lint_fixtures/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// The fixture's expected finding line carries a `LINT:` marker comment.
int MarkerLine(const std::string& content) {
  int line = 0;
  std::istringstream in(content);
  std::string text;
  while (std::getline(in, text)) {
    ++line;
    if (text.find("LINT:") != std::string::npos) return line;
  }
  ADD_FAILURE() << "fixture has no LINT: marker";
  return -1;
}

// Lints a fixture as if it lived at `as_path` (the CLI's --as-dir) and
// asserts every finding is `rule`, with one on the marked line.
void ExpectFixtureFires(const std::string& fixture,
                        const std::string& as_path,
                        const std::string& rule) {
  const std::string content = ReadFile(FixturePath(fixture));
  const std::vector<Finding> findings = LintSource(as_path, content);
  ASSERT_FALSE(findings.empty()) << fixture << " triggered nothing";
  bool on_marker = false;
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, rule) << fixture << ":" << f.line;
    if (f.line == MarkerLine(content)) on_marker = true;
  }
  EXPECT_TRUE(on_marker) << fixture << ": no finding on the LINT: line";
}

TEST(LintRules, RuleIdsAreStable) {
  EXPECT_EQ(RuleIds(),
            (std::vector<std::string>{"determinism-rng", "unordered-iter",
                                      "wall-clock", "float-eq",
                                      "hot-check-msg", "kernel-parity"}));
}

TEST(LintFixtures, DeterminismRngFires) {
  ExpectFixtureFires("determinism_rng.cpp", "src/util/sampling.cpp",
                     "determinism-rng");
}

TEST(LintFixtures, UnorderedIterFires) {
  ExpectFixtureFires("unordered_iter.cpp", "src/core/unordered_iter.cpp",
                     "unordered-iter");
}

TEST(LintFixtures, WallClockFires) {
  ExpectFixtureFires("wall_clock.cpp", "src/engine/wall_clock.cpp",
                     "wall-clock");
}

TEST(LintFixtures, FloatEqFires) {
  ExpectFixtureFires("float_eq.cpp", "src/core/float_eq.cpp", "float-eq");
}

TEST(LintFixtures, HotCheckMsgFires) {
  ExpectFixtureFires("hot_check_msg.cpp", "src/engine/hot_check_msg.cpp",
                     "hot-check-msg");
}

TEST(LintFixtures, KernelParityFires) {
  ExpectFixtureFires("kernel_parity.cpp", "src/kernels/kernel_parity.cpp",
                     "kernel-parity");
}

// The parity contract is scoped to src/kernels/ implementation TUs: the
// same source elsewhere (callers of the kernels, the API header) is
// legal, and a call to the scalar twin inside the TU satisfies the rule
// (the dispatch-wrapper shape).
TEST(LintRules, KernelParityScopedToKernelTus) {
  const std::string content = ReadFile(FixturePath("kernel_parity.cpp"));
  EXPECT_TRUE(LintSource("src/core/kernel_parity.cpp", content).empty());
  EXPECT_TRUE(LintSource("src/kernels/kernels.h", content).empty());
}

TEST(LintRules, KernelParitySatisfiedByTwin) {
  const std::string src =
      "void FooBatch(int n) { FooBatchScalar(n); }\n"
      "void FooBatchScalar(int n) {}\n";
  EXPECT_TRUE(LintSource("src/kernels/x.cpp", src).empty());
}

// The near-miss battery: suppressed wall-clock, ordered iteration,
// integral ==, and rule tokens inside comments/strings must all stay
// silent — even under the strictest directory scoping.
TEST(LintFixtures, CleanFixtureIsClean) {
  const std::string content = ReadFile(FixturePath("clean.cpp"));
  const std::vector<Finding> findings =
      LintSource("src/core/clean.cpp", content);
  for (const Finding& f : findings) {
    ADD_FAILURE() << "unexpected: " << f.file << ":" << f.line << " ["
                  << f.rule << "] " << f.message;
  }
}

// The unordered-iter contract is directory-scoped: the same TU outside
// src/{core,server,engine,sim} is legal (tests sort afterwards, tools
// print whatever order).
TEST(LintRules, UnorderedIterOnlyInContractDirs) {
  const std::string content = ReadFile(FixturePath("unordered_iter.cpp"));
  EXPECT_FALSE(LintSource("src/core/x.cpp", content).empty());
  EXPECT_FALSE(LintSource("src/server/x.cpp", content).empty());
  EXPECT_FALSE(LintSource("src/engine/x.cpp", content).empty());
  EXPECT_FALSE(LintSource("src/sim/x.cpp", content).empty());
  EXPECT_TRUE(LintSource("src/trace/x.cpp", content).empty());
  EXPECT_TRUE(LintSource("tests/x.cpp", content).empty());
}

TEST(LintRules, WallClockExemptsTelemetryAndBench) {
  const std::string content = ReadFile(FixturePath("wall_clock.cpp"));
  EXPECT_FALSE(LintSource("src/server/x.cpp", content).empty());
  EXPECT_TRUE(LintSource("src/telemetry/x.cpp", content).empty());
  EXPECT_TRUE(LintSource("src/harness/bench_perf_suite.cpp", content)
                  .empty());
}

TEST(LintRules, SuppressionCoversOwnAndNextLineOnly) {
  const std::string src =
      "// wmlp-lint-allow(determinism-rng)\n"
      "int a = std::rand();\n"
      "int b = std::rand();\n";
  const std::vector<Finding> findings = LintSource("src/core/x.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "determinism-rng");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintRules, SuppressionIsRuleSpecific) {
  // An allow for one rule must not mute another on the same line.
  const std::string src =
      "int a = std::rand();  // wmlp-lint-allow(wall-clock)\n";
  const std::vector<Finding> findings = LintSource("src/core/x.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "determinism-rng");
}

TEST(LintRules, CommentsAndStringsAreInvisible) {
  const std::string src =
      "// std::rand() steady_clock x == 1.0\n"
      "/* random_device */\n"
      "const char* s = \"srand( 2.0 == x\";\n"
      "const char* r = R\"(std::rand())\";\n";
  EXPECT_TRUE(LintSource("src/core/x.cpp", src).empty());
}

TEST(LintRules, HotRegionEndsAtClosingBrace) {
  const std::string src =
      "WMLP_HOT void Hot() {\n"
      "  WMLP_CHECK(true);\n"
      "}\n"
      "void Cold() {\n"
      "  WMLP_CHECK_MSG(true, \"fine outside hot\");\n"
      "}\n";
  EXPECT_TRUE(LintSource("src/engine/x.cpp", src).empty());
}

TEST(LintRules, HotDeclarationDoesNotArm) {
  // A WMLP_HOT prototype (no body) must not poison the next function.
  const std::string src =
      "WMLP_HOT void Hot();\n"
      "void Other() {\n"
      "  WMLP_CHECK_MSG(true, \"not a hot body\");\n"
      "}\n";
  EXPECT_TRUE(LintSource("src/engine/x.cpp", src).empty());
}

TEST(LintRules, UnorderedIterTracksHeaderMembers) {
  // A member declared unordered in the paired header is caught when the
  // .cpp iterates it.
  const std::string header =
      "class C {\n"
      "  std::unordered_map<int, int> index_;\n"
      "};\n";
  const std::string src =
      "void C::Dump() {\n"
      "  for (const auto& kv : index_) Use(kv);\n"
      "}\n";
  const std::vector<Finding> findings =
      LintSource("src/core/c.cpp", src, header);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unordered-iter");
  // Without the header context the name is unknown — and silent.
  EXPECT_TRUE(LintSource("src/core/c.cpp", src).empty());
}

TEST(LintRules, FloatEqIgnoresIntegralAndInequalities) {
  const std::string src =
      "bool A(int n) { return n == 0; }\n"
      "bool B(double x) { return x < 1.0; }\n"
      "bool C(double x, double y) { return x == y; }\n";  // no literal
  EXPECT_TRUE(LintSource("src/core/x.cpp", src).empty());
}

TEST(LintCompileDb, ExtractsFileEntries) {
  const std::string db_path =
      testing::TempDir() + "/lint_test_compile_commands.json";
  {
    std::ofstream out(db_path);
    out << R"([{"directory": "/b", "command": "c++ -c a.cpp",)"
        << R"( "file": "/repo/src/a.cpp"},)"
        << R"({"directory": "/b", "command": "c++ -c b.cpp",)"
        << R"( "file": "/repo/src/b.cpp"},)"
        << R"({"directory": "/b", "command": "c++ -c a.cpp",)"
        << R"( "file": "/repo/src/a.cpp"}])";
  }
  EXPECT_EQ(ReadCompileDb(db_path),
            (std::vector<std::string>{"/repo/src/a.cpp", "/repo/src/b.cpp"}));
}

// The shipped tree must be finding-free: this is the in-process twin of
// the `wmlp_lint_tree` ctest and the CI lint job, so a rule regression
// (or a new violation in src/) fails the unit suite too.
TEST(LintTree, ShippedSourcesAreClean) {
  const std::string root = WMLP_SOURCE_DIR;
  const std::vector<std::string> files = CollectTree(root);
  ASSERT_GT(files.size(), 50u) << "tree walk found suspiciously few files";
  const std::vector<Finding> findings = LintFiles(root, files);
  for (const Finding& f : findings) {
    ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule << "] "
                  << f.message;
  }
}

}  // namespace
}  // namespace wmlp::lint
