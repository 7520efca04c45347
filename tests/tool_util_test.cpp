// Tests for the strict flag parser every binary uses (util/flags.h): a
// malformed or partially-consumed value ("--trials 1O") exits 1 naming the
// flag instead of reading as 0, and an undeclared flag ("--trails 5"), a
// stray argument, a repeated flag or a missing value exits 2 naming the
// token instead of being ignored.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tool_util.h"

namespace wmlp::tools {
namespace {

// The flags of a made-up tool.
const cli::FlagSpec kSpec = {
    .values = {"trials", "alpha", "out", "seed", "ratio"},
    .switches = {"verbose"},
    .lists = {"names"}};

Flags MakeFlags(std::initializer_list<std::string> args) {
  static std::vector<std::string> storage;
  storage.assign({"prog"});
  storage.insert(storage.end(), args);
  static std::vector<char*> argv;
  argv.clear();
  for (std::string& s : storage) argv.push_back(s.data());
  return Flags(static_cast<int>(argv.size()), argv.data(), kSpec);
}

TEST(ToolUtilTest, ParsesWellFormedFlags) {
  const Flags flags =
      MakeFlags({"--trials", "12", "--alpha", "0.75", "--out", "x.txt",
                 "--names", "a", "b{s=\"0\"}", "--verbose"});
  EXPECT_EQ(flags.GetInt("trials", 0), 12);
  EXPECT_DOUBLE_EQ(flags.GetDouble("alpha", 0.0), 0.75);
  EXPECT_EQ(flags.GetString("out"), "x.txt");
  EXPECT_TRUE(flags.Has("verbose"));
  EXPECT_FALSE(flags.Has("seed"));
  // A list flag takes every value up to the next flag.
  EXPECT_EQ(flags.GetList("names"),
            (std::vector<std::string>{"a", "b{s=\"0\"}"}));
  EXPECT_EQ(flags.GetString("names"), "a");
  EXPECT_TRUE(flags.GetList("verbose").empty());
  EXPECT_TRUE(flags.GetList("seed").empty());
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
  // "--trials --verbose": value-less flag followed by another flag, and a
  // value flag at the end of the line.
  EXPECT_EXIT(MakeFlags({"--trials", "--verbose"}),
              ::testing::ExitedWithCode(2), "missing value for '--trials'");
  EXPECT_EXIT(MakeFlags({"--verbose", "--trials"}),
              ::testing::ExitedWithCode(2), "missing value for '--trials'");
}

TEST(ToolUtilDeathTest, TrailingJunkDoubleDies) {
  const Flags flags = MakeFlags({"--alpha", "0.5x"});
  EXPECT_EXIT(flags.GetDouble("alpha", 0.0), ::testing::ExitedWithCode(1),
              "--alpha expects a number, got '0.5x'");
}

TEST(ToolUtilDeathTest, OutOfRangeDoubleDies) {
  // A number is finite and starts at the token's first character.
  for (const char* text : {"1e999", "nan", "inf", "-inf", " 0.5"}) {
    const Flags flags = MakeFlags({"--alpha", text});
    EXPECT_EXIT(flags.GetDouble("alpha", 0.0), ::testing::ExitedWithCode(1),
                "--alpha expects a number")
        << text;
  }
}

TEST(ToolUtilDeathTest, UndeclaredFlagExits2) {
  EXPECT_EXIT(MakeFlags({"--trails", "5"}), ::testing::ExitedWithCode(2),
              "unknown flag '--trails'");
  // One spelling per flag: no --name=value, no single dash.
  EXPECT_EXIT(MakeFlags({"--trials=5"}), ::testing::ExitedWithCode(2),
              "unknown flag '--trials=5'");
}

TEST(ToolUtilDeathTest, PositionalArgumentExits2) {
  EXPECT_EXIT(MakeFlags({"--trials", "5", "stray"}),
              ::testing::ExitedWithCode(2), "unexpected argument 'stray'");
  EXPECT_EXIT(MakeFlags({"-trials", "5"}), ::testing::ExitedWithCode(2),
              "unexpected argument '-trials'");
}

TEST(ToolUtilDeathTest, RepeatedFlagExits2) {
  EXPECT_EXIT(MakeFlags({"--trials", "2", "--trials", "4"}),
              ::testing::ExitedWithCode(2), "repeated flag '--trials'");
  EXPECT_EXIT(MakeFlags({"--names", "a", "--verbose", "--names", "b"}),
              ::testing::ExitedWithCode(2), "repeated flag '--names'");
}

TEST(ToolUtilDeathTest, SwitchGivenAValueExits2) {
  EXPECT_EXIT(MakeFlags({"--verbose", "yes"}), ::testing::ExitedWithCode(2),
              "unexpected argument 'yes'");
}

TEST(ToolUtilTest, ListFlagTakesEveryValueUpToTheNextFlag) {
  const Flags flags = MakeFlags({"--names", "a", "-1", "--trials", "3"});
  EXPECT_EQ(flags.GetList("names"), (std::vector<std::string>{"a", "-1"}));
  EXPECT_EQ(flags.GetInt("trials", 0), 3);
  EXPECT_EXIT(MakeFlags({"--names", "--verbose"}),
              ::testing::ExitedWithCode(2), "missing value for '--names'");
}

TEST(ToolUtilDeathTest, ReadingAnUndeclaredFlagIsABug) {
  const Flags flags = MakeFlags({});
  EXPECT_DEATH(flags.GetInt("trails", 1), "--trails read but never declared");
}

}  // namespace
}  // namespace wmlp::tools
