/**
 * @file
 * Tests for the table/heatmap reporting utilities and the run helpers.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "gpu/runner.hh"
#include "gpu/tiling/tile_grid.hh"
#include "trace/heatmap.hh"
#include "trace/report.hh"

using namespace libra;

TEST(Table, AlignsColumns)
{
    Table table({"name", "value"});
    table.addRow({"a", "1"});
    table.addRow({"long-name", "22"});
    const std::string out = table.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("long-name"), std::string::npos);
    // Header and two rows plus separator.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, CsvFormat)
{
    Table table({"a", "b"});
    table.addRow({"1", "2"});
    EXPECT_EQ(table.csv(), "a,b\n1,2\n");
}

TEST(Table, CsvQuotesSpecialCells)
{
    // RFC 4180: cells containing commas, quotes or newlines are quoted
    // and embedded quotes doubled — a benchmark title like
    // "Clash, Royale" must stay one cell.
    Table table({"title", "note"});
    table.addRow({"Clash, Royale", "plain"});
    table.addRow({"say \"hi\"", "line1\nline2"});
    EXPECT_EQ(table.csv(),
              "title,note\n"
              "\"Clash, Royale\",plain\n"
              "\"say \"\"hi\"\"\",\"line1\nline2\"\n");
}

TEST(Table, CsvQuoteRules)
{
    EXPECT_EQ(Table::csvQuote("plain"), "plain");
    EXPECT_EQ(Table::csvQuote(""), "");
    EXPECT_EQ(Table::csvQuote("a,b"), "\"a,b\"");
    EXPECT_EQ(Table::csvQuote("a\"b"), "\"a\"\"b\"");
    EXPECT_EQ(Table::csvQuote("a\nb"), "\"a\nb\"");
    EXPECT_EQ(Table::csvQuote("a\rb"), "\"a\rb\"");
    EXPECT_EQ(Table::csvQuote("\""), "\"\"\"\"");
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(10.0, 0), "10");
    EXPECT_EQ(Table::pct(0.209), "20.9%");
    EXPECT_EQ(Table::pct(0.5, 0), "50%");
}

TEST(TableDeathTest, RowWidthMismatchPanics)
{
    Table table({"a", "b"});
    EXPECT_DEATH(table.addRow({"only-one"}), "row width mismatch");
}

TEST(Heatmap, AsciiShape)
{
    const TileGrid grid(128, 64, 32); // 4x2 tiles
    std::vector<std::uint64_t> values{0, 1, 2, 3, 4, 5, 6, 7};
    const std::string art = heatmapAscii(grid, values);
    // 2 rows of 4 characters plus newlines.
    EXPECT_EQ(art.size(), 2u * (4u + 1u));
    EXPECT_EQ(art[4], '\n');
    // Max value gets the hottest glyph, zero the coldest.
    EXPECT_EQ(art[0], ' ');
}

TEST(Heatmap, PpmRoundTrip)
{
    const TileGrid grid(128, 64, 32);
    std::vector<std::uint64_t> values{0, 10, 20, 30, 40, 50, 60, 70};
    const std::string path = "/tmp/libra_test_heatmap.ppm";
    ASSERT_TRUE(writeHeatmapPpm(path, grid, values, 4));
    std::FILE *fp = std::fopen(path.c_str(), "rb");
    ASSERT_NE(fp, nullptr);
    char magic[3] = {0};
    ASSERT_EQ(std::fscanf(fp, "%2s", magic), 1);
    EXPECT_STREQ(magic, "P6");
    int w = 0, h = 0;
    ASSERT_EQ(std::fscanf(fp, "%d %d", &w, &h), 2);
    EXPECT_EQ(w, 16); // 4 tiles * 4 px cells
    EXPECT_EQ(h, 8);
    std::fclose(fp);
    std::remove(path.c_str());
}

TEST(Runner, SpeedupDefinition)
{
    RunResult slow, fast;
    FrameStats f;
    f.totalCycles = 2000;
    slow.frames.push_back(f);
    f.totalCycles = 1000;
    fast.frames.push_back(f);
    EXPECT_DOUBLE_EQ(speedup(slow, fast), 2.0);
    EXPECT_DOUBLE_EQ(speedup(fast, slow), 0.5);
}

TEST(Runner, FpsFromCycles)
{
    RunResult r;
    FrameStats f;
    f.totalCycles = 8000000; // 10 ms at 800 MHz
    r.frames.push_back(f);
    EXPECT_NEAR(r.fps(800e6), 100.0, 1e-9);
}
