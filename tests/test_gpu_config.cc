/**
 * @file
 * Tests for GpuConfig::validate(): every shipped preset must pass, and
 * each class of misconfiguration must be rejected with InvalidArgument
 * before a simulation is built on top of it.
 */

#include <gtest/gtest.h>

#include "gpu/gpu_config.hh"

using namespace libra;

namespace
{

void
expectInvalid(const GpuConfig &cfg, const char *what)
{
    const Status st = cfg.validate();
    EXPECT_FALSE(st.isOk()) << what;
    EXPECT_EQ(st.code(), ErrorCode::InvalidArgument) << what;
    EXPECT_FALSE(st.message().empty()) << what;
}

} // namespace

TEST(GpuConfigValidate, ShippedPresetsAreValid)
{
    EXPECT_TRUE(GpuConfig().validate().isOk());
    EXPECT_TRUE(GpuConfig::baseline(8).validate().isOk());
    EXPECT_TRUE(GpuConfig::ptr(2, 4).validate().isOk());
    EXPECT_TRUE(GpuConfig::libra(2, 4).validate().isOk());
    EXPECT_TRUE(GpuConfig::libra(4, 2).validate().isOk());
    EXPECT_TRUE(GpuConfig::staticSupertile(8).validate().isOk());
}

TEST(GpuConfigValidate, BenchResolutionsAreValid)
{
    for (const auto &[w, h] : {std::pair<std::uint32_t, std::uint32_t>
                              {960, 544}, {1920, 1080}, {512, 288}}) {
        GpuConfig cfg = GpuConfig::libra(2, 4);
        cfg.screenWidth = w;
        cfg.screenHeight = h;
        EXPECT_TRUE(cfg.validate().isOk()) << w << "x" << h;
    }
}

TEST(GpuConfigValidate, RejectsBadScreen)
{
    GpuConfig cfg;
    cfg.screenWidth = 0;
    expectInvalid(cfg, "zero width");

    cfg = GpuConfig();
    cfg.screenHeight = 0;
    expectInvalid(cfg, "zero height");

    cfg = GpuConfig();
    cfg.screenWidth = 1u << 20;
    expectInvalid(cfg, "absurd width");
}

TEST(GpuConfigValidate, RejectsBadTileSize)
{
    GpuConfig cfg;
    cfg.tileSize = 0;
    expectInvalid(cfg, "zero tile");

    cfg = GpuConfig();
    cfg.tileSize = 4096;
    expectInvalid(cfg, "tile above the hard cap");

    // A tile larger than the whole screen in both dimensions can never
    // be filled.
    cfg = GpuConfig();
    cfg.screenWidth = 128;
    cfg.screenHeight = 128;
    cfg.tileSize = 256;
    expectInvalid(cfg, "tile exceeds screen");

    // But a tile covering the screen in one dimension only is a legal
    // (single-column) grid.
    cfg = GpuConfig();
    cfg.screenWidth = 1920;
    cfg.screenHeight = 32;
    cfg.tileSize = 32;
    EXPECT_TRUE(cfg.validate().isOk());
}

TEST(GpuConfigValidate, RejectsBadOrganization)
{
    GpuConfig cfg;
    cfg.rasterUnits = 0;
    expectInvalid(cfg, "zero RUs");

    cfg = GpuConfig();
    cfg.rasterUnits = 1000;
    expectInvalid(cfg, "absurd RU count");

    cfg = GpuConfig();
    cfg.coresPerRu = 0;
    expectInvalid(cfg, "zero cores");

    cfg = GpuConfig();
    cfg.warpsPerCore = 0;
    expectInvalid(cfg, "zero warp slots");

    // A warp wider than a whole tile can never be assembled.
    cfg = GpuConfig();
    cfg.tileSize = 8;
    cfg.warpQuads = 32;
    expectInvalid(cfg, "warp exceeds tile");
}

TEST(GpuConfigValidate, RejectsBadThroughputsAndFifo)
{
    GpuConfig cfg;
    cfg.rasterQuadsPerCycle = 0;
    expectInvalid(cfg, "zero raster throughput");

    cfg = GpuConfig();
    cfg.vertexProcessors = 0;
    expectInvalid(cfg, "zero vertex processors");

    cfg = GpuConfig();
    cfg.fifoDepth = 1;
    expectInvalid(cfg, "FIFO too shallow");
}

TEST(GpuConfigValidate, RejectsBadCacheGeometry)
{
    GpuConfig cfg;
    cfg.textureCache.sizeBytes = 0;
    expectInvalid(cfg, "zero cache size");

    cfg = GpuConfig();
    cfg.textureCache.lineBytes = 48; // not a power of two
    expectInvalid(cfg, "non-pow2 line");

    cfg = GpuConfig();
    cfg.l2.sizeBytes = 100000; // not ways x line aligned
    expectInvalid(cfg, "unaligned cache size");

    cfg = GpuConfig();
    cfg.tileCache.mshrs = 0;
    expectInvalid(cfg, "zero MSHRs");
}

TEST(GpuConfigValidate, RejectsBadDramGeometry)
{
    GpuConfig cfg;
    cfg.dram.channels = 0;
    expectInvalid(cfg, "zero channels");

    cfg = GpuConfig();
    cfg.dram.rowBytes = cfg.dram.lineBytes + 1;
    expectInvalid(cfg, "row not line-aligned");

    cfg = GpuConfig();
    cfg.dram.writeLowWatermark = cfg.dram.writeHighWatermark + 1;
    expectInvalid(cfg, "inverted watermarks");
}

TEST(GpuConfigValidate, RejectsBadScheduling)
{
    GpuConfig cfg = GpuConfig::libra(2, 4);
    cfg.sched.hotRasterUnits = 2; // all RUs hot: no cold end left
    expectInvalid(cfg, "hot RUs = all RUs");

    cfg = GpuConfig::libra(2, 4);
    cfg.sched.hotRasterUnits = 0;
    expectInvalid(cfg, "zero hot RUs");

    // With a single RU the hot/cold split is unused: do not reject.
    cfg = GpuConfig::baseline(8);
    cfg.sched.hotRasterUnits = 1;
    EXPECT_TRUE(cfg.validate().isOk());

    cfg = GpuConfig::libra(2, 4);
    cfg.sched.minSupertileSize = 8;
    cfg.sched.maxSupertileSize = 4;
    expectInvalid(cfg, "empty supertile range");
}

TEST(GpuConfigValidate, RejectsBadCompressionRatio)
{
    GpuConfig cfg;
    cfg.fbCompressionRatio = 0.0;
    expectInvalid(cfg, "zero ratio");

    cfg = GpuConfig();
    cfg.fbCompressionRatio = 1.5;
    expectInvalid(cfg, "ratio above 1");
}
