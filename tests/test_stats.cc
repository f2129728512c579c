/**
 * @file
 * Tests for the statistics registry.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"

using namespace libra;

TEST(Counter, BasicOps)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 4;
    c.inc();
    c.inc(10);
    EXPECT_EQ(c.value(), 16u);
    c.set(99);
    EXPECT_EQ(c.value(), 99u);
}

TEST(StatGroup, PrefixesNames)
{
    Counter hits;
    StatGroup group("cache");
    group.add("hits", &hits);
    hits += 3;
    const auto values = group.values();
    ASSERT_EQ(values.size(), 1u);
    EXPECT_EQ(values.at("cache.hits"), 3u);
}

TEST(StatGroup, ChildrenNestPrefixes)
{
    Counter a, b;
    StatGroup child("l1");
    child.add("misses", &a);
    StatGroup parent("gpu");
    parent.add("cycles", &b);
    parent.addChild(child);
    a += 7;
    b += 2;
    const auto values = parent.values();
    EXPECT_EQ(values.at("gpu.l1.misses"), 7u);
    EXPECT_EQ(values.at("gpu.cycles"), 2u);
}

TEST(StatGroupDeathTest, NullCounterPanics)
{
    StatGroup group("g");
    EXPECT_DEATH(group.add("x", nullptr), "null counter");
}
