// Regression tests for the CLI flag parser (tools/tool_util.h).
//
// The old getters called strtoll/strtod with no error checking, so a typo
// like "--trials 1O" silently parsed as 0 and the tool ran a zero-trial
// experiment instead of failing. The getters now die with a message naming
// the flag on any malformed or partially-consumed value.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tool_util.h"

namespace wmlp::tools {
namespace {

Flags MakeFlags(std::initializer_list<std::string> args) {
  static std::vector<std::string> storage;
  storage.assign({"prog"});
  storage.insert(storage.end(), args);
  static std::vector<char*> argv;
  argv.clear();
  for (std::string& s : storage) argv.push_back(s.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(ToolUtilTest, ParsesWellFormedFlags) {
  const Flags flags =
      MakeFlags({"--trials", "12", "--alpha", "0.75", "--out", "x.txt",
                 "--names", "a", "b{s=\"0\"}", "--verbose"});
  EXPECT_EQ(flags.GetInt("trials", 0), 12);
  EXPECT_DOUBLE_EQ(flags.GetDouble("alpha", 0.0), 0.75);
  EXPECT_EQ(flags.GetString("out"), "x.txt");
  EXPECT_TRUE(flags.Has("verbose"));
  EXPECT_FALSE(flags.Has("missing"));
  // A list flag takes every value up to the next flag.
  EXPECT_EQ(flags.GetList("names"),
            (std::vector<std::string>{"a", "b{s=\"0\"}"}));
  EXPECT_EQ(flags.GetString("names"), "a");
  EXPECT_TRUE(flags.GetList("verbose").empty());
  EXPECT_TRUE(flags.GetList("missing").empty());
}

TEST(ToolUtilTest, MissingFlagsReturnDefaults) {
  const Flags flags = MakeFlags({});
  EXPECT_EQ(flags.GetInt("trials", 7), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("alpha", 1.5), 1.5);
  EXPECT_EQ(flags.GetString("out", "fallback"), "fallback");
}

TEST(ToolUtilTest, NegativeAndScientificValuesParse) {
  const Flags flags = MakeFlags({"--seed", "-3", "--ratio", "1e3"});
  EXPECT_EQ(flags.GetInt("seed", 0), -3);
  EXPECT_DOUBLE_EQ(flags.GetDouble("ratio", 0.0), 1000.0);
}

TEST(ToolUtilDeathTest, TrailingJunkIntegerDies) {
  // The motivating bug: "1O" (letter O) used to parse as 0.
  const Flags flags = MakeFlags({"--trials", "1O"});
  EXPECT_EXIT(flags.GetInt("trials", 0), ::testing::ExitedWithCode(1),
              "--trials expects an integer, got '1O'");
}

TEST(ToolUtilDeathTest, NonNumericIntegerDies) {
  const Flags flags = MakeFlags({"--trials", "many"});
  EXPECT_EXIT(flags.GetInt("trials", 0), ::testing::ExitedWithCode(1),
              "--trials expects an integer");
}

TEST(ToolUtilDeathTest, FloatForIntegerFlagDies) {
  const Flags flags = MakeFlags({"--trials", "2.5"});
  EXPECT_EXIT(flags.GetInt("trials", 0), ::testing::ExitedWithCode(1),
              "--trials expects an integer");
}

TEST(ToolUtilDeathTest, EmptyIntegerValueDies) {
  // "--trials --verbose": value-less flag followed by another flag.
  const Flags flags = MakeFlags({"--trials", "--verbose"});
  EXPECT_EXIT(flags.GetInt("trials", 0), ::testing::ExitedWithCode(1),
              "--trials expects an integer");
}

TEST(ToolUtilDeathTest, TrailingJunkDoubleDies) {
  const Flags flags = MakeFlags({"--alpha", "0.5x"});
  EXPECT_EXIT(flags.GetDouble("alpha", 0.0), ::testing::ExitedWithCode(1),
              "--alpha expects a number, got '0.5x'");
}

TEST(ToolUtilDeathTest, OutOfRangeDoubleDies) {
  const Flags flags = MakeFlags({"--alpha", "1e999"});
  EXPECT_EXIT(flags.GetDouble("alpha", 0.0), ::testing::ExitedWithCode(1),
              "--alpha expects a number");
}

}  // namespace
}  // namespace wmlp::tools
