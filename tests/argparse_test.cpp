#include <gtest/gtest.h>

#include "../tools/argparse.h"

namespace msra::tools {
namespace {

Args parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "msractl");
  return Args::parse(static_cast<int>(argv.size()),
                     const_cast<char**>(argv.data()));
}

TEST(ArgsTest, KeyValueForms) {
  auto args = parse({"--root", "/tmp/x", "--iterations=12"});
  EXPECT_EQ(args.get("root"), "/tmp/x");
  EXPECT_EQ(args.get_int("iterations", 0), 12);
}

TEST(ArgsTest, BooleanFlags) {
  auto args = parse({"--superfile", "--dataset", "vr_temp"});
  EXPECT_TRUE(args.has("superfile"));
  EXPECT_FALSE(args.has("resume"));
  EXPECT_EQ(args.get("dataset"), "vr_temp");
}

TEST(ArgsTest, FlagFollowedByFlagHasEmptyValue) {
  auto args = parse({"--resume", "--superfile"});
  EXPECT_TRUE(args.has("resume"));
  EXPECT_TRUE(args.has("superfile"));
  EXPECT_EQ(args.get("resume"), "");
}

TEST(ArgsTest, RepeatedOptionsAccumulate) {
  auto args = parse({"--hint", "temp=REMOTEDISK", "--hint", "vr_temp=LOCALDISK"});
  auto hints = args.get_all("hint");
  ASSERT_EQ(hints.size(), 2u);
  EXPECT_EQ(hints[0], "temp=REMOTEDISK");
  EXPECT_EQ(hints[1], "vr_temp=LOCALDISK");
  // get() returns the last occurrence.
  EXPECT_EQ(args.get("hint"), "vr_temp=LOCALDISK");
}

TEST(ArgsTest, PositionalsCollected) {
  auto args = parse({"alpha", "--k", "v", "beta"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "alpha");
  EXPECT_EQ(args.positional()[1], "beta");
}

TEST(ArgsTest, DefaultsApplyWhenAbsent) {
  auto args = parse({});
  EXPECT_EQ(args.get("root", "fallback"), "fallback");
  EXPECT_EQ(args.get_int("nprocs", 4), 4);
  EXPECT_TRUE(args.get_all("hint").empty());
}

TEST(ArgsTest, EqualsValueMayContainEquals) {
  auto args = parse({"--hint=temp=REMOTEDISK"});
  EXPECT_EQ(args.get("hint"), "temp=REMOTEDISK");
}

TEST(ArgsTest, EmptyIntValueFallsBack) {
  auto args = parse({"--iterations", "--other", "x"});
  EXPECT_EQ(args.get_int("iterations", 7), 7);
}

TEST(ArgsTest, IntRejectsNonIntegers) {
  auto args = parse({"--iterations", "abc", "--nprocs", "12x", "--rounds=7"});
  EXPECT_THROW(args.get_int("iterations", 24), UsageError);
  EXPECT_THROW(args.get_int("nprocs", 4), UsageError);
  EXPECT_EQ(args.get_int("rounds", 3), 7);
}

TEST(ArgsTest, IntEnforcesItsMinimum) {
  auto args = parse({"--checkpoint-freq", "0", "--hot-reads", "-1"});
  EXPECT_THROW(args.get_int("checkpoint-freq", 6, 1), UsageError);
  EXPECT_THROW(args.get_int("hot-reads", 2, 0), UsageError);
  EXPECT_EQ(args.get_int("hot-reads", 2), -1);
}

TEST(ArgsTest, DoubleRejectsGarbageAndNonFiniteValues) {
  auto args = parse({"--util", "0.25", "--pressure", "0.9x", "--target", "nan",
                     "--min-benefit", "inf"});
  EXPECT_DOUBLE_EQ(args.get_double("util", 0.0), 0.25);
  EXPECT_THROW(args.get_double("pressure", 0.9), UsageError);
  EXPECT_THROW(args.get_double("target", 0.75), UsageError);
  EXPECT_THROW(args.get_double("min-benefit", 0.0), UsageError);
  EXPECT_DOUBLE_EQ(args.get_double("slo", 1.5), 1.5);
}

TEST(ArgsTest, NumbersParseWholeTextOnly) {
  EXPECT_EQ(Args::to_number("--dims", "16", 1), 16);
  EXPECT_THROW(Args::to_number("--dims", "x", 1), UsageError);
  EXPECT_THROW(Args::to_number("--dims", "", 1), UsageError);
  EXPECT_THROW(Args::to_number("--dims", "1e3", 1), UsageError);
  EXPECT_THROW(Args::to_number("--dims", "0", 1), UsageError);
}

TEST(ArgsTest, MegabytesClampToTheFloorThenShift) {
  auto args = parse({"--size-mb", "0", "--cache-mb", "3"});
  EXPECT_EQ(args.get_mb("size-mb", 16, 1), 1u << 20);
  EXPECT_EQ(args.get_mb("cache-mb", 64, 1), 3u << 20);
  EXPECT_EQ(args.get_mb("spill-mb", 0, 0), 0u);
  EXPECT_THROW(parse({"--size-mb", "big"}).get_mb("size-mb", 16, 1),
               UsageError);
}

TEST(ArgsTest, SpecsSplitAtTheFirstEqualsSign) {
  auto args = parse({"--hot", "temp=6", "--hot", "rho", "--hint", "a=b=c"});
  const auto hot = args.get_specs("hot", "4");
  ASSERT_EQ(hot.size(), 2u);
  EXPECT_EQ(hot[0], std::make_pair(std::string("temp"), std::string("6")));
  EXPECT_EQ(hot[1], std::make_pair(std::string("rho"), std::string("4")));
  const auto hints = args.get_specs("hint", nullptr);
  ASSERT_EQ(hints.size(), 1u);
  EXPECT_EQ(hints[0].second, "b=c");
  EXPECT_THROW(parse({"--hint", "temp"}).get_specs("hint", nullptr),
               UsageError);
}

TEST(ArgsTest, UnknownOptionsAreRejected) {
  const std::string usage = "[--iterations N] [--cache] [--json [FILE]]";
  EXPECT_NO_THROW(parse({"--iterations", "12", "--cache", "--json"})
                      .check_known(usage));
  EXPECT_THROW(parse({"--iteration", "12"}).check_known(usage), UsageError);
  EXPECT_THROW(parse({"--cache-mb", "1"}).check_known(usage), UsageError);
  EXPECT_THROW(parse({"--json-out"}).check_known(usage), UsageError);
}

}  // namespace
}  // namespace msra::tools
