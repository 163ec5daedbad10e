#include "util/cli.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "obs/plane.h"

namespace ftc::util {
namespace {

Args make_args(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, ParsesKeyValue) {
  const Args args = make_args({"--n=100", "--ratio=1.5"});
  EXPECT_EQ(args.get_int("n", 0, 0, 1000), 100);
  EXPECT_DOUBLE_EQ(args.get_double("ratio", 0.0), 1.5);
}

TEST(Args, FlagWithoutValueIsTruthy) {
  const Args args = make_args({"--verbose"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_TRUE(args.get_bool("verbose", false));
}

TEST(Args, MissingKeyReturnsFallback) {
  const Args args = make_args({});
  EXPECT_EQ(args.get_int("n", 7, 0, 10), 7);
  EXPECT_EQ(args.get_string("name", "dflt"), "dflt");
  EXPECT_FALSE(args.get("nothing").has_value());
}

TEST(Args, PositionalArgumentsCollected) {
  const Args args = make_args({"file1", "--k=2", "file2"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "file1");
  EXPECT_EQ(args.positional()[1], "file2");
}

TEST(Args, BadIntegerThrows) {
  const Args args = make_args({"--n=abc", "--m=12abc", "--k=3.5"});
  EXPECT_THROW((void)args.get_int("n", 0, 0, 100), std::invalid_argument);
  // A numeric prefix is not a number: no silent truncation.
  EXPECT_THROW((void)args.get_int("m", 0, 0, 100), std::invalid_argument);
  EXPECT_THROW((void)args.get_int("k", 0, 0, 100), std::invalid_argument);
}

TEST(Args, RangedIntRejectsValuesOutsideTheRange) {
  const Args args = make_args({"--n=4294967306", "--k=0", "--t=5"});
  EXPECT_THROW((void)args.get_int("n", 1, 1, 2147483647),
               std::invalid_argument);
  EXPECT_THROW((void)args.get_int("k", 1, 1, 10), std::invalid_argument);
  EXPECT_EQ(args.get_int("t", 1, 1, 5), 5);  // bounds are inclusive
  EXPECT_EQ(args.get_int("absent", 3, 1, 5), 3);
  try {
    (void)args.get_int("k", 1, 1, 10);
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--k=0: must be in [1, 10]");
  }
}

TEST(Args, BadDoubleThrows) {
  const Args args = make_args({"--x=oops", "--loss=0.5x"});
  EXPECT_THROW((void)args.get_double("x", 0.0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("loss", 0.0), std::invalid_argument);
}

TEST(Args, BoolSpellings) {
  EXPECT_TRUE(make_args({"--f=true"}).get_bool("f", false));
  EXPECT_TRUE(make_args({"--f=yes"}).get_bool("f", false));
  EXPECT_TRUE(make_args({"--f=on"}).get_bool("f", false));
  EXPECT_FALSE(make_args({"--f=false"}).get_bool("f", true));
  EXPECT_FALSE(make_args({"--f=0"}).get_bool("f", true));
  EXPECT_THROW((void)make_args({"--f=maybe"}).get_bool("f", true),
               std::invalid_argument);
}

TEST(Args, U64Parses) {
  const Args args = make_args({"--seed=18446744073709551615", "--neg=-1",
                               "--junk=7z"});
  EXPECT_EQ(args.get_u64("seed", 0), ~std::uint64_t{0});
  // std::stoull would wrap -1 to 2^64 - 1.
  EXPECT_THROW((void)args.get_u64("neg", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_u64("junk", 0), std::invalid_argument);
}

TEST(Args, IntListParses) {
  const Args args = make_args({"--ks=1,2,5,10"});
  EXPECT_EQ(args.get_int_list("ks", {}, 1, 10),
            (std::vector<long long>{1, 2, 5, 10}));
}

TEST(Args, IntListFallback) {
  const Args args = make_args({});
  EXPECT_EQ(args.get_int_list("ks", {3}, 1, 10), (std::vector<long long>{3}));
}

TEST(Args, IntListBadElementThrows) {
  const Args args = make_args({"--ks=1,x,3", "--ts=1,2x,3"});
  EXPECT_THROW((void)args.get_int_list("ks", {}, 0, 10),
               std::invalid_argument);
  EXPECT_THROW((void)args.get_int_list("ts", {}, 0, 10),
               std::invalid_argument);
}

TEST(Args, IntListOutOfRangeElementThrows) {
  const Args args =
      make_args({"--ks=1,-1,3", "--ts=0", "--ns=100,5000000000"});
  EXPECT_THROW((void)args.get_int_list("ks", {}, 1, 10),
               std::invalid_argument);
  EXPECT_THROW((void)args.get_int_list("ts", {}, 1, 10),
               std::invalid_argument);
  EXPECT_THROW((void)args.get_int_list("ns", {}, 2, INT32_MAX),
               std::invalid_argument);
  EXPECT_EQ(args.get_int_list("ns", {}, 2, 5'000'000'000LL),
            (std::vector<long long>{100, 5'000'000'000LL}));
}

TEST(Args, LastDuplicateWins) {
  const Args args = make_args({"--n=1", "--n=2"});
  EXPECT_EQ(args.get_int("n", 0, 0, 10), 2);
}

TEST(Args, ValueWithEquals) {
  const Args args = make_args({"--expr=a=b"});
  EXPECT_EQ(args.get_string("expr", ""), "a=b");
}

TEST(Args, ProgramName) {
  const Args args = make_args({});
  EXPECT_EQ(args.program(), "prog");
}

TEST(ObsFlags, DefaultsWhenAbsent) {
  const ObsFlags flags = parse_obs_flags(make_args({"--n=100"}));
  EXPECT_FALSE(flags.enabled());
  EXPECT_TRUE(flags.trace_path.empty());
  EXPECT_TRUE(flags.metrics_path.empty());
  EXPECT_EQ(flags.capacity, 1 << 18);
}

TEST(ObsFlags, FullFlagGroupParses) {
  const ObsFlags flags = parse_obs_flags(
      make_args({"--trace=run.trace", "--metrics=m.json",
                 "--trace-categories=engine,repair", "--trace-severity=warn",
                 "--trace-capacity=1024"}));
  EXPECT_TRUE(flags.enabled());
  EXPECT_EQ(flags.trace_path, "run.trace");
  EXPECT_EQ(flags.metrics_path, "m.json");
  EXPECT_EQ(flags.categories, "engine,repair");
  EXPECT_EQ(flags.severity, "warn");
  EXPECT_EQ(flags.capacity, 1024);
}

TEST(ObsFlags, MetricsAloneEnables) {
  EXPECT_TRUE(parse_obs_flags(make_args({"--metrics=m.json"})).enabled());
}

TEST(ObsFlags, BadCapacityThrows) {
  EXPECT_THROW((void)parse_obs_flags(make_args({"--trace-capacity=lots"})),
               std::invalid_argument);
  // A ring needs room for one event; zero or negative is rejected, not
  // replaced by the default: by the flag parser, and by make_plane for
  // flags built in code.
  for (const char* cap : {"--trace-capacity=0", "--trace-capacity=-5"}) {
    EXPECT_THROW(
        (void)parse_obs_flags(make_args({"--metrics=m.json", cap})),
        std::invalid_argument)
        << cap;
  }
  ObsFlags zero = parse_obs_flags(make_args({"--metrics=m.json"}));
  zero.capacity = 0;
  EXPECT_THROW((void)obs::make_plane(zero), std::invalid_argument);
  EXPECT_NE(obs::make_plane(parse_obs_flags(
                make_args({"--metrics=m.json", "--trace-capacity=1"}))),
            nullptr);
}

}  // namespace
}  // namespace ftc::util
