/**
 * @file
 * Tests for the command-line parser.
 */

#include <gtest/gtest.h>

#include "common/cli.hh"

using namespace libra;

namespace
{

CliArgs
parse(std::vector<const char *> argv, std::vector<std::string> known)
{
    argv.insert(argv.begin(), "prog");
    return CliArgs(static_cast<int>(argv.size()), argv.data(), known);
}

} // namespace

TEST(Cli, SpaceSeparatedValue)
{
    const auto args = parse({"--frames", "12"}, {"frames"});
    EXPECT_EQ(args.getUint("frames", 0), 12u);
}

TEST(Cli, EqualsValue)
{
    const auto args = parse({"--frames=25"}, {"frames"});
    EXPECT_EQ(args.getUint("frames", 0), 25u);
}

TEST(Cli, BareBooleanFlag)
{
    const auto args = parse({"--full"}, {"full"});
    EXPECT_TRUE(args.getBool("full"));
    EXPECT_TRUE(args.has("full"));
}

TEST(Cli, MissingUsesFallback)
{
    const auto args = parse({}, {"frames"});
    EXPECT_EQ(args.getUint("frames", 8), 8u);
    EXPECT_EQ(args.get("frames", "x"), "x");
    EXPECT_DOUBLE_EQ(args.getDouble("frames", 2.5), 2.5);
    EXPECT_FALSE(args.getBool("frames"));
}

TEST(Cli, ListParsing)
{
    const auto args = parse({"--benchmarks", "CCS,SuS,GDL"},
                            {"benchmarks"});
    const auto list = args.getList("benchmarks");
    ASSERT_EQ(list.size(), 3u);
    EXPECT_EQ(list[0], "CCS");
    EXPECT_EQ(list[2], "GDL");
}

TEST(Cli, EmptyListWhenAbsent)
{
    const auto args = parse({}, {"benchmarks"});
    EXPECT_TRUE(args.getList("benchmarks").empty());
}

TEST(Cli, PositionalArguments)
{
    const auto args = parse({"hello", "--frames", "3", "world"},
                            {"frames"});
    ASSERT_EQ(args.positional().size(), 2u);
    EXPECT_EQ(args.positional()[0], "hello");
    EXPECT_EQ(args.positional()[1], "world");
}

TEST(Cli, BoolFalseValues)
{
    const auto args = parse({"--a", "0", "--b", "false", "--c", "1"},
                            {"a", "b", "c"});
    EXPECT_FALSE(args.getBool("a"));
    EXPECT_FALSE(args.getBool("b"));
    EXPECT_TRUE(args.getBool("c"));
}

TEST(Cli, DoubleParsing)
{
    const auto args = parse({"--threshold", "0.25"}, {"threshold"});
    EXPECT_DOUBLE_EQ(args.getDouble("threshold", 0.0), 0.25);
}

TEST(CliDeathTest, UnknownOptionIsFatal)
{
    EXPECT_EXIT(parse({"--bogus", "1"}, {"frames"}),
                ::testing::ExitedWithCode(1), "unknown option");
}

TEST(CliDeathTest, DuplicateOptionIsFatal)
{
    EXPECT_EXIT(parse({"--frames", "2", "--frames", "3"}, {"frames"}),
                ::testing::ExitedWithCode(1), "duplicate option");
}

TEST(CliDeathTest, MalformedIntegerIsFatal)
{
    const auto args = parse({"--frames", "abc"}, {"frames"});
    EXPECT_EXIT((void)args.getUint("frames", 0),
                ::testing::ExitedWithCode(1), "expected an integer");
}

TEST(CliDeathTest, TrailingGarbageIntegerIsFatal)
{
    const auto args = parse({"--frames=12x"}, {"frames"});
    EXPECT_EXIT((void)args.getUint("frames", 0),
                ::testing::ExitedWithCode(1), "expected an integer");
}

TEST(CliDeathTest, IntegerOverflowIsFatal)
{
    const auto args =
        parse({"--frames", "99999999999999999999999"}, {"frames"});
    EXPECT_EXIT((void)args.getUint("frames", 0),
                ::testing::ExitedWithCode(1), "out of range");
}

TEST(CliDeathTest, MalformedDoubleIsFatal)
{
    const auto args = parse({"--threshold", "0.5oops"}, {"threshold"});
    EXPECT_EXIT((void)args.getDouble("threshold", 0.0),
                ::testing::ExitedWithCode(1), "expected a number");
}

TEST(CliDeathTest, BareFlagReadAsIntegerStaysValid)
{
    // A bare "--flag" stores "1", which still parses as an integer.
    const auto args = parse({"--full"}, {"full"});
    EXPECT_EQ(args.getUint("full", 0), 1u);
}

// --- getUint: strict parsing for count/duration options --------------
//
// --frames, --deadline-ms, --backoff-ms, --warm-prefix and friends are
// unsigned; a signed parse plus a static_cast quietly turned
// "--backoff-ms=-5" into an astronomically large unsigned backoff.
// getUint rejects the sign as well as trailing garbage and overflow.

TEST(Cli, UintParsesPlainAndHex)
{
    const auto args = parse({"--a", "42", "--b", "0x20"}, {"a", "b"});
    EXPECT_EQ(args.getUint("a", 0), 42u);
    EXPECT_EQ(args.getUint("b", 0), 32u);
}

TEST(Cli, UintMissingUsesFallback)
{
    const auto args = parse({}, {"deadline-ms"});
    EXPECT_EQ(args.getUint("deadline-ms", 123), 123u);
}

TEST(Cli, UintFullRange)
{
    // Values above int64 max are legal for a u64 option.
    const auto args =
        parse({"--a", "18446744073709551615"}, {"a"});
    EXPECT_EQ(args.getUint("a", 0), ~std::uint64_t{0});
}

TEST(CliDeathTest, UintRejectsNegative)
{
    const auto args = parse({"--backoff-ms", "-5"}, {"backoff-ms"});
    EXPECT_EXIT((void)args.getUint("backoff-ms", 0),
                ::testing::ExitedWithCode(1),
                "expected a non-negative integer");
}

TEST(CliDeathTest, UintRejectsNegativeEqualsForm)
{
    const auto args = parse({"--deadline-ms=-1"}, {"deadline-ms"});
    EXPECT_EXIT((void)args.getUint("deadline-ms", 0),
                ::testing::ExitedWithCode(1),
                "expected a non-negative integer");
}

TEST(CliDeathTest, UintRejectsTrailingGarbage)
{
    const auto args = parse({"--checkpoint-every=3frames"},
                            {"checkpoint-every"});
    EXPECT_EXIT((void)args.getUint("checkpoint-every", 0),
                ::testing::ExitedWithCode(1), "expected an integer");
}

TEST(CliDeathTest, UintRejectsEmptyValue)
{
    const auto args = parse({"--warm-prefix="}, {"warm-prefix"});
    EXPECT_EXIT((void)args.getUint("warm-prefix", 0),
                ::testing::ExitedWithCode(1), "expected an integer");
}

TEST(CliDeathTest, UintRejectsOverflow)
{
    const auto args =
        parse({"--a", "99999999999999999999999"}, {"a"});
    EXPECT_EXIT((void)args.getUint("a", 0),
                ::testing::ExitedWithCode(1), "out of range");
}

TEST(CliDeathTest, UintRejectsInteriorMinus)
{
    // strtoull would stop at the '-'; the whole-value contract and the
    // sign check both have to hold.
    const auto args = parse({"--a", "12-34"}, {"a"});
    EXPECT_EXIT((void)args.getUint("a", 0),
                ::testing::ExitedWithCode(1), "non-negative");
}
