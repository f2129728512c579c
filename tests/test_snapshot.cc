/**
 * @file
 * Snapshot container tests (DESIGN.md §10).
 *
 * Three layers: the writer/reader round-trip (framing, CRCs, sticky
 * errors), the corruption corpus (every damaged image must surface as
 * a recoverable Status — CorruptData or FailedPrecondition — never a
 * crash or a silently-wrong restore), and the runner's fallback
 * contract: a run pointed at a corrupt, truncated or wrong-version
 * snapshot degrades to a cold run whose results are byte-identical to
 * never having checkpointed at all. Plus how a checkpoint dir picks
 * the file a run restores from, and the section checksum itself: the
 * slicing-by-8 kernel against the byte-at-a-time CRC it replaced, and
 * a container image pinned byte for byte.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "check/fault_injector.hh"
#include "check/result_cache.hh"
#include "check/snapshot.hh"
#include "common/rng.hh"
#include "common/status.hh"
#include "gpu/gpu_config.hh"
#include "gpu/runner.hh"
#include "workload/benchmarks.hh"
#include "workload/scene.hh"

using namespace libra;

namespace
{

constexpr std::uint32_t kWidth = 128;
constexpr std::uint32_t kHeight = 64;
constexpr std::uint32_t kFrames = 4;

GpuConfig
smallConfig()
{
    GpuConfig cfg = GpuConfig::libra(2, 4);
    cfg.screenWidth = kWidth;
    cfg.screenHeight = kHeight;
    return cfg;
}

/** Fresh scratch directory under the build tree. */
std::string
scratchDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / ("libra_snap_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/** A run of @p frames frames restoring from checkpoint dir @p dir,
 *  with everything it printed to stderr. */
struct DirRestore
{
    RunResult run;
    std::string err;
};

DirRestore
restoreFromDir(const std::string &dir, const Scene &scene,
               const GpuConfig &cfg, std::uint32_t frames,
               std::uint32_t first_frame = 0)
{
    CheckpointPlan plan;
    plan.dir = dir;
    plan.restore = true;
    testing::internal::CaptureStderr();
    Result<RunResult> r =
        runBenchmark(scene, cfg, frames, first_frame, plan);
    DirRestore out{RunResult{}, testing::internal::GetCapturedStderr()};
    EXPECT_TRUE(r.isOk()) << r.status().toString();
    if (r.isOk())
        out.run = std::move(*r);
    return out;
}

/** The byte-at-a-time CRC-32 the container used before slicing-by-8:
 *  the reference every snapshotCrc32 value must equal. */
std::uint32_t
byteLoopCrc32(const std::uint8_t *data, std::size_t len)
{
    static const auto table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < len; ++i)
        crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

/** A real snapshot image: render two frames and capture. */
std::vector<std::uint8_t>
captureImage(const Scene &scene, const GpuConfig &cfg)
{
    CheckpointPlan plan;
    plan.captureAfter = std::make_shared<std::vector<std::uint8_t>>();
    plan.captureAfterFrames = 2;
    Result<RunResult> r = runBenchmark(scene, cfg, 2, 0, plan);
    EXPECT_TRUE(r.isOk()) << r.status().toString();
    EXPECT_FALSE(plan.captureAfter->empty());
    return *plan.captureAfter;
}

} // namespace

TEST(SnapshotContainer, WriterReaderRoundTrip)
{
    SnapshotHeader h;
    h.configHash = 0x1122334455667788ull;
    h.warmPrefixHash = 0x99aabbccddeeff00ull;
    h.sceneHash = 42;
    h.firstFrame = 3;
    h.framesDone = 7;

    SnapshotWriter w(h);
    w.beginSection(SnapSection::Result);
    w.putU8(0xab);
    w.putU32(123456u);
    w.putU64(0xdeadbeefcafef00dull);
    w.putDouble(0.3259375);
    w.putBool(true);
    w.putString("counter.name");
    w.endSection();
    w.beginSection(SnapSection::Trace);
    w.putString(""); // empty strings must survive
    w.endSection();
    const std::vector<std::uint8_t> bytes = w.finish();

    Result<SnapshotReader> parsed = SnapshotReader::parse(bytes);
    ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
    SnapshotReader r = std::move(*parsed);
    EXPECT_EQ(r.header().configHash, h.configHash);
    EXPECT_EQ(r.header().warmPrefixHash, h.warmPrefixHash);
    EXPECT_EQ(r.header().sceneHash, h.sceneHash);
    EXPECT_EQ(r.header().codeVersion, kSnapshotCodeVersion);
    EXPECT_EQ(r.header().firstFrame, 3u);
    EXPECT_EQ(r.header().framesDone, 7u);

    r.openSection(SnapSection::Result);
    EXPECT_EQ(r.takeU8(), 0xab);
    EXPECT_EQ(r.takeU32(), 123456u);
    EXPECT_EQ(r.takeU64(), 0xdeadbeefcafef00dull);
    EXPECT_EQ(r.takeDouble(), 0.3259375);
    EXPECT_TRUE(r.takeBool());
    EXPECT_EQ(r.takeString(), "counter.name");
    r.closeSection();
    r.openSection(SnapSection::Trace);
    EXPECT_EQ(r.takeString(), "");
    r.closeSection();
    EXPECT_TRUE(r.finish().isOk()) << r.finish().toString();
}

TEST(SnapshotContainer, ReaderErrorsAreSticky)
{
    SnapshotHeader h;
    Result<SnapshotReader> parsed =
        SnapshotReader::parse(SnapshotWriter(h).finish());
    // Zero-section image parses fine; opening a section it doesn't
    // have sticks a CorruptData, and every later take is a zero no-op.
    ASSERT_TRUE(parsed.isOk());
    SnapshotReader r = std::move(*parsed);
    r.openSection(SnapSection::Result);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.takeU64(), 0u);
    EXPECT_EQ(r.takeString(), "");
    EXPECT_EQ(r.finish().code(), ErrorCode::CorruptData);
}

TEST(SnapshotContainer, SectionOrderIsEnforced)
{
    SnapshotHeader h;
    SnapshotWriter w(h);
    w.beginSection(SnapSection::Result);
    w.putU32(1);
    w.endSection();
    w.beginSection(SnapSection::Trace);
    w.putU32(2);
    w.endSection();
    Result<SnapshotReader> parsed =
        SnapshotReader::parse(w.finish());
    ASSERT_TRUE(parsed.isOk());
    SnapshotReader r = std::move(*parsed);
    r.openSection(SnapSection::Trace); // out of order
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::CorruptData);
}

TEST(SnapshotContainer, CorruptionCorpusIsRecoverable)
{
    // Every mangled variant of a real image must come back as a
    // Status, never a crash: that is what lets the runner fall back to
    // a cold run on any damaged checkpoint dir. corruptTrace() is the
    // same corpus generator the .ltrc corruption suite uses; on top of
    // it, truncations at every framing boundary and a sweep of single
    // bit flips through the header region.
    const GpuConfig cfg = smallConfig();
    const Scene scene(findBenchmark("CCS"), kWidth, kHeight);
    const std::vector<std::uint8_t> image = captureImage(scene, cfg);

    std::vector<std::vector<std::uint8_t>> corpus;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        corpus.push_back(corruptTrace(
            image, TraceCorruption::TruncateMidRecord, seed));
        corpus.push_back(
            corruptTrace(image, TraceCorruption::BitFlipHeader, seed));
    }
    for (const std::size_t cut : {std::size_t{0}, std::size_t{3},
                                  std::size_t{43}, std::size_t{44},
                                  std::size_t{45}, image.size() - 1}) {
        corpus.emplace_back(image.begin(),
                            image.begin()
                                + static_cast<std::ptrdiff_t>(cut));
    }
    for (std::size_t byte = 0; byte < 44 && byte < image.size();
         byte += 5) {
        std::vector<std::uint8_t> flipped = image;
        flipped[byte] ^= 0x10;
        corpus.push_back(std::move(flipped));
    }

    int rejected = 0;
    for (const std::vector<std::uint8_t> &bad : corpus) {
        Result<SnapshotReader> parsed = SnapshotReader::parse(bad);
        if (!parsed.isOk()) {
            EXPECT_EQ(parsed.status().code(), ErrorCode::CorruptData);
            ++rejected;
            continue;
        }
        // Some header flips survive parsing (hash fields carry no
        // CRC by design — they are *keys*); those must then fail the
        // restore's key checks instead. Exercise exactly that path.
        CheckpointPlan plan;
        plan.warmStart = std::make_shared<std::vector<std::uint8_t>>(
            bad);
        Result<RunResult> run =
            runBenchmark(scene, cfg, kFrames, 0, plan);
        ASSERT_TRUE(run.isOk()) << run.status().toString();
    }
    EXPECT_GT(rejected, 0) << "corpus never hit the parse layer";
}

TEST(SnapshotContainer, WrongFormatAndCodeVersionRefused)
{
    const GpuConfig cfg = smallConfig();
    const Scene scene(findBenchmark("CCS"), kWidth, kHeight);
    std::vector<std::uint8_t> image = captureImage(scene, cfg);

    // Bytes 4..7 are the little-endian container format version.
    std::vector<std::uint8_t> bad_format = image;
    bad_format[4] = 0xee;
    Result<SnapshotReader> parsed = SnapshotReader::parse(bad_format);
    ASSERT_FALSE(parsed.isOk());
    EXPECT_EQ(parsed.status().code(), ErrorCode::CorruptData);

    // Bytes 32..35 are the code version: parses (the container is
    // intact) but any restore must refuse it as FailedPrecondition.
    std::vector<std::uint8_t> bad_code = image;
    bad_code[32] = 0xee;
    ASSERT_TRUE(SnapshotReader::parse(bad_code).isOk());
    CheckpointPlan plan;
    plan.warmStart =
        std::make_shared<std::vector<std::uint8_t>>(bad_code);
    Result<RunResult> run = runBenchmark(scene, cfg, kFrames, 0, plan);
    // Falls back to a cold run, which must equal the never-checkpointed
    // reference exactly.
    ASSERT_TRUE(run.isOk()) << run.status().toString();
    Result<RunResult> cold = runBenchmark(scene, cfg, kFrames, 0);
    ASSERT_TRUE(cold.isOk());
    EXPECT_EQ(run->counters, cold->counters);
}

TEST(SnapshotContainer, CorruptDirSnapshotFallsBackToColdRun)
{
    const GpuConfig cfg = smallConfig();
    const Scene scene(findBenchmark("CCS"), kWidth, kHeight);
    const std::string dir = scratchDir("fallback");

    // Write real periodic checkpoints.
    CheckpointPlan writing;
    writing.dir = dir;
    writing.every = 1;
    Result<RunResult> seeded =
        runBenchmark(scene, cfg, kFrames, 0, writing);
    ASSERT_TRUE(seeded.isOk()) << seeded.status().toString();
    std::vector<std::string> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        files.push_back(entry.path().string());
    ASSERT_FALSE(files.empty());

    // Damage every snapshot file in place.
    for (const std::string &path : files) {
        Result<std::vector<std::uint8_t>> bytes =
            readSnapshotFile(path);
        ASSERT_TRUE(bytes.isOk());
        std::vector<std::uint8_t> bad = corruptTrace(
            std::move(*bytes), TraceCorruption::TruncateMidRecord, 5);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(bad.data()),
                  static_cast<std::streamsize>(bad.size()));
    }

    // A restoring run over the damaged dir must degrade to a cold run
    // with identical results — and never crash.
    CheckpointPlan restoring;
    restoring.dir = dir;
    restoring.restore = true;
    Result<RunResult> restored =
        runBenchmark(scene, cfg, kFrames, 0, restoring);
    ASSERT_TRUE(restored.isOk()) << restored.status().toString();
    EXPECT_EQ(restored->counters, seeded->counters);
    std::filesystem::remove_all(dir);
}

TEST(CheckpointDir, MissingDirIsSilentAndFreshestMatchWins)
{
    const GpuConfig cfg = smallConfig();
    const Scene scene(findBenchmark("CCS"), kWidth, kHeight);
    const auto cold = [&](const GpuConfig &c, std::uint32_t frames,
                          std::uint32_t first_frame) {
        return runBenchmark(scene, c, frames, first_frame)
            .value()
            .counters;
    };
    const char *fallback = "falling back to a cold run";

    // A missing dir restores nothing and warns nothing.
    const DirRestore none =
        restoreFromDir("/nonexistent/libra/snapdir", scene, cfg, kFrames);
    EXPECT_EQ(none.err, "");
    EXPECT_EQ(none.run.counters, cold(cfg, kFrames, 0));

    // Checkpoints after frames 1, 2 and 3; damage 1 and 3 so the
    // warning tells which file a restore picked.
    const std::string dir = scratchDir("select");
    CheckpointPlan writing;
    writing.dir = dir;
    writing.every = 1;
    ASSERT_TRUE(runBenchmark(scene, cfg, kFrames, 0, writing).isOk());
    SnapshotHeader key;
    key.configHash = cfg.configHash();
    key.sceneHash = snapshotSceneHash("CCS", kWidth, kHeight);
    for (const std::uint32_t done : {1u, 3u}) {
        key.framesDone = done;
        const std::string path =
            dir + "/" + keyedSnapshotFileName("ckpt", key, ".lsnp");
        std::filesystem::resize_file(
            path, std::filesystem::file_size(path) / 2);
    }

    // The freshest snapshot at or below the frame count wins: frame 3
    // for a 4-frame run, even though frame 2 is intact...
    const DirRestore freshest = restoreFromDir(dir, scene, cfg, kFrames);
    EXPECT_NE(freshest.err.find(fallback), std::string::npos);
    EXPECT_EQ(freshest.run.counters, cold(cfg, kFrames, 0));
    // ...and a lower cap picks the older frame 2 over damaged frame 1.
    const DirRestore capped = restoreFromDir(dir, scene, cfg, 2);
    EXPECT_EQ(capped.err, "");
    EXPECT_EQ(capped.run.counters, cold(cfg, 2, 0));

    // Another config or first frame never restores from these files.
    GpuConfig other = cfg;
    other.sched.policy = SchedulerPolicy::Scanline;
    const DirRestore other_cfg = restoreFromDir(dir, scene, other, kFrames);
    EXPECT_EQ(other_cfg.err, "");
    EXPECT_EQ(other_cfg.run.counters, cold(other, kFrames, 0));
    const DirRestore other_first =
        restoreFromDir(dir, scene, cfg, kFrames, 1);
    EXPECT_EQ(other_first.err, "");
    EXPECT_EQ(other_first.run.counters, cold(cfg, kFrames, 1));
    std::filesystem::remove_all(dir);
}

TEST(SnapshotChecksum, StandardCheckValue)
{
    const std::string check = "123456789";
    EXPECT_EQ(snapshotCrc32(
                  reinterpret_cast<const std::uint8_t *>(check.data()),
                  check.size()),
              0xCBF43926u);
    EXPECT_EQ(snapshotCrc32(nullptr, 0), 0u);
}

TEST(SnapshotChecksum, SlicingMatchesByteLoopAtEveryLengthAndOffset)
{
    // Every length 0..4096 at every start offset 0..7: each step count
    // and tail length, at each alignment of the 8-byte words.
    constexpr std::size_t kMaxLen = 4096;
    Rng rng(29);
    std::vector<std::uint8_t> buf(kMaxLen + 8);
    for (std::uint8_t &b : buf)
        b = static_cast<std::uint8_t>(rng.next());
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t len = 0; len <= kMaxLen; ++len) {
            const std::uint8_t *data = buf.data() + offset;
            ASSERT_EQ(snapshotCrc32(data, len), byteLoopCrc32(data, len))
                << "offset " << offset << ", length " << len;
        }
    }
}

TEST(SnapshotChecksum, ResultCacheEntryBytesArePinned)
{
    // A result-cache entry built from fixed inputs, byte for byte as
    // the byte-loop CRC wrote it: a checksum change would make every
    // stored entry and checkpoint unreadable.
    ResultCacheKey key;
    key.configHash = 0x0123456789abcdefull;
    key.sceneHash = 0xfedcba9876543210ull;
    key.frames = 2;
    key.firstFrame = 3;
    const std::string report =
        "{\"schema\":\"libra.run_report/1\",\"benchmark\":\"CCS\","
        "\"total_cycles\":123456789}";
    const std::string pinned =
        "4c534e5001000000efcdab896745230100000000000000001032547698badcfe"
        "0400000003000000020000000b00000052000000000000004a00000000000000"
        "7b22736368656d61223a226c696272612e72756e5f7265706f72742f31222c22"
        "62656e63686d61726b223a22434353222c22746f74616c5f6379636c6573223a"
        "3132333435363738397d79b6d26d";

    const std::vector<std::uint8_t> image =
        buildResultCacheEntry(key, report);
    std::string hex;
    for (const std::uint8_t b : image) {
        constexpr char kDigits[] = "0123456789abcdef";
        hex += kDigits[b >> 4];
        hex += kDigits[b & 0xF];
    }
    EXPECT_EQ(hex, pinned);

    std::vector<std::uint8_t> bytes;
    for (std::size_t i = 0; i + 1 < pinned.size(); i += 2)
        bytes.push_back(static_cast<std::uint8_t>(
            std::stoul(pinned.substr(i, 2), nullptr, 16)));
    Result<std::string> back = parseResultCacheEntry(key, bytes);
    ASSERT_TRUE(back.isOk()) << back.status().toString();
    EXPECT_EQ(*back, report);
}
