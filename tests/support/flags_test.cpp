#include "support/flags.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace pushpart {
namespace {

Flags make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, EqualsSyntax) {
  const auto f = make({"--n=100", "--ratio=5:2:1"});
  EXPECT_EQ(f.i64("n", 0), 100);
  EXPECT_EQ(f.str("ratio", ""), "5:2:1");
}

TEST(FlagsTest, SpaceSyntax) {
  const auto f = make({"--n", "250", "--name", "hello"});
  EXPECT_EQ(f.i64("n", 0), 250);
  EXPECT_EQ(f.str("name", ""), "hello");
}

TEST(FlagsTest, BareFlagIsBooleanTrue) {
  const auto f = make({"--verbose"});
  EXPECT_TRUE(f.b("verbose", false));
}

TEST(FlagsTest, FallbacksWhenAbsent) {
  const auto f = make({});
  EXPECT_EQ(f.i64("n", 77), 77);
  EXPECT_DOUBLE_EQ(f.f64("x", 1.5), 1.5);
  EXPECT_EQ(f.str("s", "dflt"), "dflt");
  EXPECT_FALSE(f.b("v", false));
  EXPECT_FALSE(f.has("n"));
}

TEST(FlagsTest, FloatParsing) {
  const auto f = make({"--x=2.75", "--y", "-0.5"});
  EXPECT_DOUBLE_EQ(f.f64("x", 0), 2.75);
  EXPECT_DOUBLE_EQ(f.f64("y", 0), -0.5);
}

TEST(FlagsTest, NegativeNumberAsValue) {
  const auto f = make({"--delta", "-12"});
  EXPECT_EQ(f.i64("delta", 0), -12);
}

TEST(FlagsTest, BooleanSpellings) {
  EXPECT_TRUE(make({"--a=true"}).b("a", false));
  EXPECT_TRUE(make({"--a=1"}).b("a", false));
  EXPECT_TRUE(make({"--a=on"}).b("a", false));
  EXPECT_FALSE(make({"--a=false"}).b("a", true));
  EXPECT_FALSE(make({"--a=0"}).b("a", true));
  EXPECT_FALSE(make({"--a=off"}).b("a", true));
}

TEST(FlagsTest, MalformedIntegerThrows) {
  const auto f = make({"--n=abc"});
  EXPECT_THROW(f.i64("n", 0), std::invalid_argument);
}

TEST(FlagsTest, OutOfRangeIntegerThrows) {
  // strtoll saturates at the 64-bit limits; a saturated value must not be
  // mistaken for what the user typed.
  const auto f =
      make({"--n=99999999999999999999999", "--m=-99999999999999999999999"});
  EXPECT_THROW(f.i64("n", 0), std::invalid_argument);
  EXPECT_THROW(f.i64("m", 0), std::invalid_argument);
  EXPECT_THROW(f.i32("n", 0), std::invalid_argument);
}

TEST(FlagsTest, CheckedIntRead) {
  const auto f =
      make({"--n=4294967396", "--runs=4294967297", "--big=2147483647",
            "--small=-2147483648", "--over=2147483648", "--ok=48"});
  EXPECT_EQ(f.i32("ok", 0), 48);
  EXPECT_EQ(f.i32("absent", 7), 7);
  EXPECT_EQ(f.i32("big", 0), 2147483647);
  EXPECT_EQ(f.i32("small", 0), -2147483647 - 1);
  // Values that fit an int64 but not an int are refused, not truncated
  // (4294967396 would otherwise wrap to 100, 4294967297 to 1).
  EXPECT_EQ(f.i64("n", 0), 4294967396);
  for (const char* name : {"n", "runs", "over"}) {
    try {
      (void)f.i32(name, 0);
      ADD_FAILURE() << "--" << name << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("flag --") + name +
                                           " expects"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(make({"--n=abc"}).i32("n", 0), std::invalid_argument);
}

TEST(FlagsTest, OutOfRangeDoubleThrows) {
  const auto f = make({"--x=1e400", "--y=-1e400", "--z=1e300"});
  EXPECT_THROW(f.f64("x", 0), std::invalid_argument);
  EXPECT_THROW(f.f64("y", 0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(f.f64("z", 0), 1e300);
}

TEST(FlagsTest, MalformedBooleanThrows) {
  const auto f = make({"--a=maybe"});
  EXPECT_THROW(f.b("a", false), std::invalid_argument);
}

TEST(FlagsTest, PositionalArguments) {
  const auto f = make({"input.txt", "--n=5", "other"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.txt");
  EXPECT_EQ(f.positional()[1], "other");
}

TEST(FlagsTest, LastDuplicateWins) {
  const auto f = make({"--n=1", "--n=2"});
  EXPECT_EQ(f.i64("n", 0), 2);
}

TEST(FlagsTest, NamesListsAllFlags) {
  const auto f = make({"--b=1", "--a=2"});
  const auto names = f.names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");  // map iteration is sorted
  EXPECT_EQ(names[1], "b");
}

}  // namespace
}  // namespace pushpart
