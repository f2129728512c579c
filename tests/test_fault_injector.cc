/**
 * @file
 * Fault-injection framework unit tests: spec grammar round-trips,
 * validation errors, the seeded plan fuzzer, and the per-job injector
 * queries the engine hooks rely on.
 */

#include <gtest/gtest.h>

#include <string>

#include "check/fault_injector.hh"

using namespace libra;

TEST(FaultPlan, EmptySpecIsTheEmptyPlan)
{
    const Result<FaultPlan> plan = FaultPlan::parse("");
    ASSERT_TRUE(plan.isOk());
    EXPECT_TRUE(plan->empty());
    EXPECT_EQ(plan->toString(), "");
}

TEST(FaultPlan, SpecRoundTripsThroughParseAndToString)
{
    const std::string spec =
        "seed=42;watchdog@frame=1;dropfill:l2@every=64;"
        "dramstall@every=128,ticks=500;transient@job=3,count=2;"
        "kill@append=5";
    const Result<FaultPlan> plan = FaultPlan::parse(spec);
    ASSERT_TRUE(plan.isOk()) << plan.status().toString();
    EXPECT_EQ(plan->seed, 42u);
    ASSERT_EQ(plan->faults.size(), 5u);
    EXPECT_EQ(plan->toString(), spec);

    // And the rendering reparses to the same plan (full round trip).
    const Result<FaultPlan> again = FaultPlan::parse(plan->toString());
    ASSERT_TRUE(again.isOk());
    EXPECT_EQ(again->toString(), spec);
}

TEST(FaultPlan, MalformedSpecsAreInvalidArgument)
{
    for (const char *bad : {
             "nonsense",                //!< unknown keyword
             "corrupt:truncate@offset=7", //!< not a fault kind
             "watchdog@frames=1",       //!< unknown parameter
             "kill@offset=5",           //!< unknown parameter
             "dropfill@every=64",       //!< dropfill without a target
             "dropfill:l2",             //!< dropfill without a period
             "dramstall@ticks=10",      //!< dramstall without a period
             "transient@job=1x",        //!< trailing garbage in number
             "seed=",                   //!< empty value
         }) {
        const Result<FaultPlan> plan = FaultPlan::parse(bad);
        EXPECT_FALSE(plan.isOk()) << bad;
        if (!plan.isOk()) {
            EXPECT_EQ(plan.status().code(), ErrorCode::InvalidArgument)
                << bad;
        }
    }
}

TEST(FaultPlan, FuzzerIsDeterministicAndSoakSafe)
{
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        const FaultPlan a = fuzzFaultPlan(seed, 8);
        const FaultPlan b = fuzzFaultPlan(seed, 8);
        EXPECT_EQ(a.toString(), b.toString()) << "seed " << seed;
        // The generated spec must survive its own grammar.
        const Result<FaultPlan> reparsed = FaultPlan::parse(a.toString());
        ASSERT_TRUE(reparsed.isOk())
            << "seed " << seed << ": " << a.toString();
        EXPECT_EQ(reparsed->toString(), a.toString());
        // Kill points need a cooperating harness; the soak arms them
        // separately.
        for (const FaultSpec &f : a.faults) {
            EXPECT_NE(f.kind, FaultKind::KillPoint) << "seed " << seed;
            if (f.kind == FaultKind::TransientFail) {
                EXPECT_LT(f.job, 8u) << "seed " << seed;
            }
        }
    }
}

TEST(FaultInjector, WatchdogTripMatchesExactFrame)
{
    const Result<FaultPlan> plan =
        FaultPlan::parse("watchdog@frame=2");
    ASSERT_TRUE(plan.isOk());
    FaultInjector inj(*plan, 0);
    EXPECT_FALSE(inj.tripWatchdogAtFrame(0));
    EXPECT_FALSE(inj.tripWatchdogAtFrame(1));
    EXPECT_TRUE(inj.tripWatchdogAtFrame(2));
    EXPECT_FALSE(inj.tripWatchdogAtFrame(3));
}

TEST(FaultInjector, FrameCounterIsMonotonicAcrossQueries)
{
    FaultInjector inj(FaultPlan{}, 0);
    EXPECT_EQ(inj.frameStarted(), 0u);
    EXPECT_EQ(inj.frameStarted(), 1u);
    EXPECT_EQ(inj.frameStarted(), 2u);
}

TEST(FaultInjector, DropFillMatchesCacheNamePrefix)
{
    const Result<FaultPlan> plan = FaultPlan::parse(
        "dropfill:l2@every=64;dropfill:tex@every=32");
    ASSERT_TRUE(plan.isOk());
    const FaultInjector inj(*plan, 0);
    EXPECT_EQ(inj.dropFillEvery("l2"), 64u);
    EXPECT_EQ(inj.dropFillEvery("tex0"), 32u);  // prefix match: L1s
    EXPECT_EQ(inj.dropFillEvery("tex13"), 32u);
    EXPECT_EQ(inj.dropFillEvery("tile_cache"), 0u);
    EXPECT_EQ(inj.dropFillEvery("vertex_cache"), 0u);
}

TEST(FaultInjector, DramStallAndKillPointReadBack)
{
    const Result<FaultPlan> plan = FaultPlan::parse(
        "dramstall@every=128,ticks=500;kill@append=3");
    ASSERT_TRUE(plan.isOk());
    const FaultInjector inj(*plan, 0);
    EXPECT_EQ(inj.dramStallEvery(), 128u);
    EXPECT_EQ(inj.dramStallTicks(), Tick{500});
    EXPECT_EQ(inj.killAtAppend(), 3u);

    const FaultInjector none(FaultPlan{}, 0);
    EXPECT_EQ(none.dramStallEvery(), 0u);
    EXPECT_EQ(none.killAtAppend(), 0u);
}

TEST(FaultInjector, TransientFailureTargetsJobAndAttemptWindow)
{
    const Result<FaultPlan> plan =
        FaultPlan::parse("transient@job=3,count=2");
    ASSERT_TRUE(plan.isOk());

    const FaultInjector hit(*plan, 3);
    EXPECT_TRUE(hit.failAttempt(0));
    EXPECT_TRUE(hit.failAttempt(1));
    EXPECT_FALSE(hit.failAttempt(2)); // third attempt succeeds

    const FaultInjector miss(*plan, 4);
    EXPECT_FALSE(miss.failAttempt(0));
}
