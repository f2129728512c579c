/**
 * @file
 * Unit tests for the deterministic event queue.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/event_queue.hh"

using namespace libra;

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.nextEventTick(), maxTick);
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.runUntil();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickEventsRunInScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 100; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.runUntil();
    ASSERT_EQ(order.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NowAdvancesToEventTick)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(42, [&] { seen = eq.now(); });
    eq.runOne();
    EXPECT_EQ(seen, 42u);
    EXPECT_EQ(eq.now(), 42u);
}

TEST(EventQueue, ScheduleAfterIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(10, [&] {
        eq.scheduleAfter(5, [&] { seen = eq.now(); });
    });
    eq.runUntil();
    EXPECT_EQ(seen, 15u);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 10)
            eq.scheduleAfter(1, chain);
    };
    eq.schedule(0, chain);
    eq.runUntil();
    EXPECT_EQ(count, 10);
    EXPECT_EQ(eq.now(), 9u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int count = 0;
    for (Tick t = 0; t < 10; ++t)
        eq.schedule(t * 10, [&] { ++count; });
    const auto ran = eq.runUntil(45);
    EXPECT_EQ(ran, 5u); // ticks 0,10,20,30,40
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.nextEventTick(), 50u);
}

TEST(EventQueue, SchedulingAtCurrentTickAllowed)
{
    EventQueue eq;
    bool ran = false;
    eq.schedule(7, [&] {
        eq.schedule(7, [&] { ran = true; });
    });
    eq.runUntil();
    EXPECT_TRUE(ran);
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.runOne();
    EXPECT_DEATH(eq.schedule(5, [] {}), "scheduling in the past");
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 17; ++i)
        eq.schedule(static_cast<Tick>(i), [] {});
    eq.runUntil();
    EXPECT_EQ(eq.eventsExecuted(), 17u);
}

TEST(EventQueue, PendingReflectsQueueSize)
{
    EventQueue eq;
    eq.schedule(1, [] {});
    eq.schedule(2, [] {});
    EXPECT_EQ(eq.pending(), 2u);
    eq.runOne();
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, RunningCallbackSurvivesPoolGrowth)
{
    // One callback schedules enough events to make the pool add more
    // than two chunks, then reads and writes its own captures: the
    // running callable must not move or be reused under it.
    EventQueue eq;
    struct
    {
        EventQueue *eq;
        std::vector<std::pair<Tick, int>> ran;
    } log{&eq, {}};
    constexpr int kEvents = 2600;
    eq.schedule(0, [&log, tag = std::vector<int>{7, 8, 9},
                    sum = 0]() mutable {
        for (int i = 0; i < kEvents; ++i) {
            // A mix of wheel and far-heap deltas, many ticks shared.
            const Tick when = 1 + static_cast<Tick>((i * 37) % 300);
            log.eq->schedule(when, [&log, i] {
                log.ran.emplace_back(log.eq->now(), i);
            });
            sum += tag[static_cast<std::size_t>(i) % tag.size()];
        }
        tag.push_back(sum);
        EXPECT_EQ(tag.size(), 4u);
        EXPECT_EQ(tag[0], 7);
        EXPECT_EQ(tag[3], sum);
        EXPECT_EQ(log.eq->pending(), static_cast<std::size_t>(kEvents));
    });
    eq.runUntil();
    const auto &ran = log.ran;
    ASSERT_EQ(ran.size(), static_cast<std::size_t>(kEvents));
    EXPECT_EQ(eq.eventsExecuted(), static_cast<std::uint64_t>(kEvents + 1));
    // (when, seq) order: by tick, and in scheduling order within one.
    for (std::size_t k = 1; k < ran.size(); ++k) {
        const auto &a = ran[k - 1];
        const auto &b = ran[k];
        ASSERT_TRUE(a.first < b.first
                    || (a.first == b.first && a.second < b.second))
            << "event " << b.second << " at " << b.first
            << " ran after event " << a.second << " at " << a.first;
        EXPECT_EQ(b.first, 1 + static_cast<Tick>((b.second * 37) % 300));
    }
}
