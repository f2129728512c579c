/**
 * @file
 * Corruption corpus for the .ltrc loader: truncations, byte flips and
 * hand-crafted adversarial headers. The contract under test is the one
 * frame_trace.hh documents — a hostile file may be rejected, never
 * crash the process, and never drive a count-derived huge allocation.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "check/fault_injector.hh"
#include "trace/frame_trace.hh"
#include "workload/benchmarks.hh"
#include "workload/scene.hh"

using namespace libra;

namespace
{

class TracePath
{
  public:
    explicit TracePath(const char *tag)
        : path_(std::string("/tmp/libra_corrupt_")
                + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name()
                + "_" + tag + ".ltrc")
    {}
    ~TracePath() { std::remove(path_.c_str()); }
    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

std::vector<unsigned char>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<unsigned char>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
writeAll(const std::string &path, const std::vector<unsigned char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** A small but real trace to corrupt (two frames, real textures). */
std::vector<unsigned char>
validTraceBytes(const std::string &path)
{
    const Scene scene(findBenchmark("CCS"), 320, 192);
    EXPECT_TRUE(writeTrace(path, scene, 0, 2).isOk());
    std::vector<unsigned char> bytes = readAll(path);
    EXPECT_GT(bytes.size(), 24u); // header + payload
    return bytes;
}

void
putU32(std::vector<unsigned char> &bytes, std::size_t at,
       std::uint32_t v)
{
    bytes[at] = static_cast<unsigned char>(v);
    bytes[at + 1] = static_cast<unsigned char>(v >> 8);
    bytes[at + 2] = static_cast<unsigned char>(v >> 16);
    bytes[at + 3] = static_cast<unsigned char>(v >> 24);
}

constexpr std::size_t headerBytes = 24;

} // namespace

TEST(TraceCorruption, TruncationAtEveryHeaderOffsetFailsCleanly)
{
    const TracePath valid("valid");
    const std::vector<unsigned char> bytes =
        validTraceBytes(valid.str());

    const TracePath cut("cut");
    for (std::size_t len = 0; len < headerBytes; ++len) {
        writeAll(cut.str(), {bytes.begin(), bytes.begin()
                                 + static_cast<std::ptrdiff_t>(len)});
        FrameTrace trace;
        const Status st = trace.load(cut.str());
        EXPECT_FALSE(st.isOk()) << "length " << len;
        EXPECT_EQ(st.code(), ErrorCode::CorruptData) << "length " << len;
        // Failure must leave the trace empty, not half-loaded.
        EXPECT_EQ(trace.frameCount(), 0u) << "length " << len;
    }
}

TEST(TraceCorruption, TruncationAnywhereInThePayloadFailsCleanly)
{
    const TracePath valid("valid");
    const std::vector<unsigned char> bytes =
        validTraceBytes(valid.str());

    // Every strict prefix is either rejected... there is no trailing
    // slack in the format, so no prefix can accidentally be complete.
    const TracePath cut("cut");
    const std::size_t step = bytes.size() > 4096 ? 37 : 1;
    for (std::size_t len = headerBytes; len < bytes.size();
         len += step) {
        writeAll(cut.str(), {bytes.begin(), bytes.begin()
                                 + static_cast<std::ptrdiff_t>(len)});
        FrameTrace trace;
        const Status st = trace.load(cut.str());
        EXPECT_FALSE(st.isOk()) << "length " << len;
        EXPECT_EQ(trace.frameCount(), 0u) << "length " << len;
    }
}

TEST(TraceCorruption, ByteFlipAtEveryHeaderOffsetNeverCrashes)
{
    const TracePath valid("valid");
    const std::vector<unsigned char> bytes =
        validTraceBytes(valid.str());

    const TracePath flipped("flip");
    for (std::size_t at = 0; at < headerBytes; ++at) {
        std::vector<unsigned char> mutant = bytes;
        mutant[at] ^= 0xff;
        writeAll(flipped.str(), mutant);
        FrameTrace trace;
        // Flips in dimension fields may still decode to legal values;
        // the contract is "clean ok-or-error", exercised here mostly
        // for the absence of crashes/overreads under the sanitizers.
        const Status st = trace.load(flipped.str());
        if (at < 8) {
            // Magic and version have exactly one legal encoding: any
            // flip there must be rejected.
            EXPECT_FALSE(st.isOk()) << "offset " << at;
            EXPECT_EQ(st.code(), ErrorCode::CorruptData)
                << "offset " << at;
        }
        if (!st.isOk())
            EXPECT_EQ(trace.frameCount(), 0u) << "offset " << at;
    }
}

TEST(TraceCorruption, ByteFlipSweepOverPayloadNeverCrashes)
{
    const TracePath valid("valid");
    const std::vector<unsigned char> bytes =
        validTraceBytes(valid.str());

    const TracePath flipped("flip");
    const std::size_t step = bytes.size() > 4096 ? 53 : 1;
    for (std::size_t at = headerBytes; at < bytes.size(); at += step) {
        std::vector<unsigned char> mutant = bytes;
        mutant[at] ^= 0xff;
        writeAll(flipped.str(), mutant);
        FrameTrace trace;
        // Payload flips may corrupt only float payloads and still load;
        // the loader just must not crash, overread, or accept a
        // structurally impossible file.
        (void)trace.load(flipped.str());
    }
}

TEST(TraceCorruption, HugeCountsAreRejectedWithoutAllocating)
{
    const TracePath valid("valid");
    const TracePath evil("evil");
    const std::vector<unsigned char> bytes =
        validTraceBytes(valid.str());

    // Claimed counts wildly beyond both the format limits and the
    // actual file size: the loader must reject on validation, not
    // resize a vector to billions of elements first. (Run under ASan
    // this would also surface as an allocation failure.)
    struct Case
    {
        std::size_t offset;
        std::uint32_t value;
        const char *what;
    };
    const Case cases[] = {
        {8, 0xffffffffu, "screen width"},
        {12, 0xffffffffu, "screen height"},
        {16, 0xffffffffu, "texture count"},
        {16, trace_limits::maxTextures, "texture count > file size"},
        {20, 0xffffffffu, "frame count"},
        {20, trace_limits::maxFrames, "frame count > file size"},
    };
    for (const Case &c : cases) {
        std::vector<unsigned char> mutant = bytes;
        putU32(mutant, c.offset, c.value);
        writeAll(evil.str(), mutant);
        FrameTrace trace;
        const Status st = trace.load(evil.str());
        EXPECT_FALSE(st.isOk()) << c.what;
        EXPECT_EQ(st.code(), ErrorCode::CorruptData) << c.what;
        EXPECT_EQ(trace.frameCount(), 0u) << c.what;
    }
}

TEST(TraceCorruption, ZeroTextureDimensionIsRejected)
{
    const TracePath valid("valid");
    const TracePath evil("evil");
    const std::vector<unsigned char> bytes =
        validTraceBytes(valid.str());

    // First texture record sits right after the header; a zero width
    // must be caught at load time (the Texture constructor treats a
    // degenerate size as a simulator bug and aborts).
    std::vector<unsigned char> mutant = bytes;
    putU32(mutant, headerBytes, 0);
    writeAll(evil.str(), mutant);
    FrameTrace trace;
    const Status st = trace.load(evil.str());
    ASSERT_FALSE(st.isOk());
    EXPECT_EQ(st.code(), ErrorCode::CorruptData);
}

TEST(TraceCorruption, FailedLoadResetsPreviousContent)
{
    const TracePath valid("valid");
    const std::vector<unsigned char> bytes =
        validTraceBytes(valid.str());

    FrameTrace trace;
    ASSERT_TRUE(trace.load(valid.str()).isOk());
    ASSERT_GT(trace.frameCount(), 0u);

    const TracePath cut("cut");
    writeAll(cut.str(), {bytes.begin(), bytes.begin() + 10});
    EXPECT_FALSE(trace.load(cut.str()).isOk());
    EXPECT_EQ(trace.frameCount(), 0u);
    EXPECT_EQ(trace.textures().count(), 0u);
}

// --- Injector-generated corpus (fault_injector.hh::corruptTrace) -----
//
// The seeded corruption generator used by the chaos soak must
// uphold the same contract the hand-crafted cases above pin down: a
// damaged file is rejected with a recoverable Status (or, for payload
// bit flips, loads ok) — never a crash, overread or half-loaded trace.

TEST(TraceCorruption, InjectorTruncateMidRecordCorpusFailsCleanly)
{
    const TracePath valid("valid");
    const std::vector<unsigned char> bytes =
        validTraceBytes(valid.str());

    const TracePath cut("cut");
    for (std::uint64_t seed = 0; seed < 128; ++seed) {
        const std::vector<std::uint8_t> mutant =
            corruptTrace(bytes, TraceCorruption::TruncateMidRecord,
                         seed);
        ASSERT_LT(mutant.size(), bytes.size()) << "seed " << seed;
        ASSERT_GE(mutant.size(), headerBytes) << "seed " << seed;
        writeAll(cut.str(), mutant);
        FrameTrace trace;
        const Status st = trace.load(cut.str());
        EXPECT_FALSE(st.isOk()) << "seed " << seed;
        EXPECT_EQ(st.code(), ErrorCode::CorruptData) << "seed " << seed;
        EXPECT_EQ(trace.frameCount(), 0u) << "seed " << seed;
    }
}

TEST(TraceCorruption, InjectorBitFlipHeaderCorpusNeverCrashes)
{
    const TracePath valid("valid");
    const std::vector<unsigned char> bytes =
        validTraceBytes(valid.str());

    const TracePath flipped("flip");
    for (std::uint64_t seed = 0; seed < 192; ++seed) {
        const std::vector<std::uint8_t> mutant =
            corruptTrace(bytes, TraceCorruption::BitFlipHeader, seed);
        ASSERT_EQ(mutant.size(), bytes.size()) << "seed " << seed;
        writeAll(flipped.str(), mutant);
        FrameTrace trace;
        // Single-bit header damage may still decode to a legal header
        // (e.g. a dimension bit that stays within limits); the contract
        // is clean ok-or-error with no partial state on error.
        const Status st = trace.load(flipped.str());
        if (!st.isOk()) {
            EXPECT_EQ(st.code(), ErrorCode::CorruptData)
                << "seed " << seed;
            EXPECT_EQ(trace.frameCount(), 0u) << "seed " << seed;
        }
    }
}

TEST(TraceCorruption, CorruptTraceIsDeterministicPerSeed)
{
    const TracePath valid("valid");
    const std::vector<unsigned char> bytes =
        validTraceBytes(valid.str());

    for (const TraceCorruption mode :
         {TraceCorruption::TruncateMidRecord,
          TraceCorruption::BitFlipHeader}) {
        EXPECT_EQ(corruptTrace(bytes, mode, 7),
                  corruptTrace(bytes, mode, 7));
        EXPECT_NE(corruptTrace(bytes, mode, 7),
                  corruptTrace(bytes, mode, 8));
    }
}

TEST(TraceCorruptionDeathTest, FrameIndexOutOfRangeIsACallerBug)
{
    const TracePath valid("valid");
    validTraceBytes(valid.str());
    FrameTrace trace;
    ASSERT_TRUE(trace.load(valid.str()).isOk());
    EXPECT_DEATH((void)trace.frame(trace.frameCount()),
                 "trace frame");
}
