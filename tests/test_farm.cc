/**
 * @file
 * Unit tests for the sim-farm building blocks: the NDJSON wire
 * protocol (round-trips, config specs, error attribution) and the
 * persistent result cache (key identity, store/lookup byte-exactness,
 * corruption and mismatch degradation, deterministic eviction).
 *
 * The live server (socket, coalescing, journal recovery) is exercised
 * end-to-end by bench/farm_smoke.cpp; these tests pin the pieces it is
 * built from, without spinning up threads or running simulations.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "check/result_cache.hh"
#include "check/snapshot.hh"
#include "farm/farm_protocol.hh"
#include "gpu/gpu_config.hh"
#include "gpu/policy_registry.hh"
#include "trace/json.hh"

using namespace libra;

namespace
{

/** Fresh temp directory, removed on destruction. */
class TempDir
{
  public:
    explicit TempDir(const char *tag)
        : path_(std::string("/tmp/libra_farm_test_") + tag)
    {
        std::filesystem::remove_all(path_);
    }

    ~TempDir() { std::filesystem::remove_all(path_); }

    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

ResultCacheKey
sampleKey()
{
    ResultCacheKey key;
    key.configHash = 0x0123456789abcdefull;
    key.sceneHash = 0xfedcba9876543210ull;
    key.frames = 4;
    key.firstFrame = 2;
    return key;
}

} // namespace

// --- wire protocol ---------------------------------------------------

TEST(FarmProtocol, RequestRoundTripsAllFields)
{
    FarmRequest req;
    req.op = FarmOp::Simulate;
    req.id = "fig9-ccs-libra";
    req.benchmark = "CCS";
    req.width = 1280;
    req.height = 720;
    req.frames = 8;
    req.firstFrame = 3;
    req.config = "supertile:4:2x4";

    Result<FarmRequest> back = parseFarmRequest(farmRequestLine(req));
    ASSERT_TRUE(back.isOk()) << back.status().toString();
    EXPECT_EQ(back->op, FarmOp::Simulate);
    EXPECT_EQ(back->id, req.id);
    EXPECT_EQ(back->benchmark, req.benchmark);
    EXPECT_EQ(back->width, req.width);
    EXPECT_EQ(back->height, req.height);
    EXPECT_EQ(back->frames, req.frames);
    EXPECT_EQ(back->firstFrame, req.firstFrame);
    EXPECT_EQ(back->config, req.config);
}

TEST(FarmProtocol, NonSimulateOpsRoundTrip)
{
    for (const FarmOp op :
         {FarmOp::Ping, FarmOp::Stats, FarmOp::Shutdown}) {
        FarmRequest req;
        req.op = op;
        req.id = farmOpName(op);
        Result<FarmRequest> back =
            parseFarmRequest(farmRequestLine(req));
        ASSERT_TRUE(back.isOk()) << back.status().toString();
        EXPECT_EQ(back->op, op);
        EXPECT_EQ(back->id, farmOpName(op));
    }
}

TEST(FarmProtocol, FarmOpNamesRoundTrip)
{
    for (const FarmOp op : {FarmOp::Simulate, FarmOp::Ping, FarmOp::Stats,
                            FarmOp::Shutdown}) {
        Result<FarmOp> back = parseFarmOp(farmOpName(op));
        ASSERT_TRUE(back.isOk()) << back.status().toString();
        EXPECT_EQ(*back, op);
    }
    Result<FarmOp> bad = parseFarmOp("fly");
    ASSERT_FALSE(bad.isOk());
    EXPECT_EQ(bad.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(bad.status().message().find("'fly'"), std::string::npos);
}

TEST(FarmProtocol, RequestParseRejectsGarbage)
{
    EXPECT_FALSE(parseFarmRequest("not json").isOk());
    EXPECT_FALSE(parseFarmRequest("{}").isOk()); // missing schema
    EXPECT_FALSE(
        parseFarmRequest(R"({"schema":"libra.other/1","op":"ping"})")
            .isOk());
    EXPECT_FALSE(parseFarmRequest(
                     R"({"schema":"libra.farm_request/1","op":"fly"})")
                     .isOk());
}

TEST(FarmProtocol, ResponseRoundTripsIncludingPayload)
{
    FarmResponse resp;
    resp.id = "r1";
    resp.status = "ok";
    resp.cache = FarmCacheState::Coalesced;
    resp.key = sampleKey().toString();
    resp.reportBytes = 12345;
    resp.payload = R"({"cache_hits":3,"simulations":2})";

    Result<FarmResponse> back =
        parseFarmResponse(farmResponseLine(resp));
    ASSERT_TRUE(back.isOk()) << back.status().toString();
    EXPECT_TRUE(back->ok());
    EXPECT_EQ(back->id, resp.id);
    EXPECT_EQ(back->cache, FarmCacheState::Coalesced);
    EXPECT_EQ(back->key, resp.key);
    EXPECT_EQ(back->reportBytes, resp.reportBytes);
    // The payload must survive re-serialization byte-exactly: clients
    // parse it as JSON (stats counters), and numbers must not be
    // mangled through a double round-trip.
    EXPECT_EQ(back->payload, resp.payload);
}

TEST(FarmProtocol, ResponseReportBytesAreExact)
{
    // report_bytes frames the report that follows, so it must be an
    // exact integer: a fraction, a sign or an exponent is a corrupt
    // header, never a truncated or undefined cast.
    const std::string head =
        R"({"schema":"libra.farm_response/1","status":"ok","report_bytes":)";
    for (const char *bad : {"1.5", "-1", "1e300"}) {
        Result<FarmResponse> resp = parseFarmResponse(head + bad + "}");
        ASSERT_FALSE(resp.isOk()) << "accepted report_bytes " << bad;
        EXPECT_EQ(resp.status().code(), ErrorCode::CorruptData) << bad;
    }

    FarmResponse resp;
    resp.status = "ok";
    resp.reportBytes = UINT64_MAX;
    const std::string line = farmResponseLine(resp);
    EXPECT_NE(line.find("18446744073709551615"), std::string::npos)
        << line;
    Result<FarmResponse> back = parseFarmResponse(line);
    ASSERT_TRUE(back.isOk()) << back.status().toString();
    EXPECT_EQ(back->reportBytes, UINT64_MAX);
}

TEST(FarmProtocol, ErrorResponseCarriesAttribution)
{
    FarmResponse resp;
    resp.id = "bad";
    resp.status = "error";
    resp.code = "invalid_argument";
    resp.message = "unknown benchmark 'NOPE'";

    Result<FarmResponse> back =
        parseFarmResponse(farmResponseLine(resp));
    ASSERT_TRUE(back.isOk()) << back.status().toString();
    EXPECT_FALSE(back->ok());
    EXPECT_EQ(back->code, "invalid_argument");
    EXPECT_EQ(back->message, "unknown benchmark 'NOPE'");
}

// --- config specs ----------------------------------------------------

TEST(FarmProtocol, ConfigSpecsMatchPresets)
{
    Result<GpuConfig> baseline = parseConfigSpec("baseline:2");
    ASSERT_TRUE(baseline.isOk());
    EXPECT_EQ(baseline->configHash(), GpuConfig::baseline(2).configHash());

    Result<GpuConfig> ptr = parseConfigSpec("ptr:2x4");
    ASSERT_TRUE(ptr.isOk());
    EXPECT_EQ(ptr->configHash(), GpuConfig::ptr(2, 4).configHash());

    Result<GpuConfig> libra = parseConfigSpec("libra:2x4");
    ASSERT_TRUE(libra.isOk());
    EXPECT_EQ(libra->configHash(), GpuConfig::libra(2, 4).configHash());

    Result<GpuConfig> super = parseConfigSpec("supertile:4:2x4");
    ASSERT_TRUE(super.isOk());
    EXPECT_EQ(super->configHash(),
              GpuConfig::staticSupertile(4, 2, 4).configHash());

    // Defaults when the geometry suffix is omitted.
    Result<GpuConfig> bare = parseConfigSpec("libra");
    ASSERT_TRUE(bare.isOk());
    EXPECT_EQ(bare->configHash(), GpuConfig::libra().configHash());

    // Rendering Elimination presets: the ptr/libra machine with the
    // mechanism flag set.
    GpuConfig re_want = GpuConfig::ptr(2, 4);
    re_want.renderingElimination = true;
    Result<GpuConfig> re = parseConfigSpec("re:2x4");
    ASSERT_TRUE(re.isOk());
    EXPECT_EQ(re->configHash(), re_want.configHash());

    GpuConfig re_libra_want = GpuConfig::libra(4, 2);
    re_libra_want.renderingElimination = true;
    Result<GpuConfig> re_libra = parseConfigSpec("re-libra:4x2");
    ASSERT_TRUE(re_libra.isOk());
    EXPECT_EQ(re_libra->configHash(), re_libra_want.configHash());
}

TEST(FarmProtocol, PolicyPresetsProduceDistinctCacheKeys)
{
    // The result cache keys on configHash; every registry preset
    // applied to the same machine must hash apart — in particular the
    // renderingElimination flag (new in cache code version 2) must be
    // part of the chain, or an RE run could be answered with a cached
    // non-RE result.
    std::set<std::uint64_t> hashes;
    for (const PolicyInfo &p : policyRegistry()) {
        GpuConfig cfg = GpuConfig::ptr(2, 4);
        ASSERT_TRUE(applyPolicy(cfg, p.name).isOk()) << p.name;
        EXPECT_TRUE(hashes.insert(cfg.configHash()).second)
            << p.name << " collides with another preset";
    }
    EXPECT_GE(hashes.size(), 7u);

    // The flag alone separates otherwise-identical configs.
    GpuConfig off = GpuConfig::ptr(2, 4);
    GpuConfig on = off;
    on.renderingElimination = true;
    EXPECT_NE(off.configHash(), on.configHash());
}

TEST(FarmProtocol, ConfigSpecCacheKeysArePinned)
{
    // Farm result-cache keys start with configHash(), so a spec that
    // starts hashing differently orphans every entry stored under it.
    // These literals were recorded before the registry owned the
    // grammar; an edit that moves one moves a farm cache key.
    const std::pair<const char *, std::uint64_t> pins[] = {
        {"baseline:2", 0x133ec4979a1095dbull},
        {"ptr:2x4", 0x8a67e9df6b1c2f36ull},
        {"libra:2x4", 0x52619ecda296ae7bull},
        {"supertile:4:2x4", 0x2e01eb7cbf0f4590ull},
        {"re:2x4", 0x2476097e440a709dull},
        {"re-libra:4x2", 0xb2e31e72bc9e60bbull},
        {"libra", 0x52619ecda296ae7bull},
    };
    for (const auto &[spec, hash] : pins) {
        Result<GpuConfig> cfg = parseConfigSpec(spec);
        ASSERT_TRUE(cfg.isOk()) << cfg.status().toString();
        EXPECT_EQ(cfg->configHash(), hash) << spec;
    }
}

TEST(FarmProtocol, ConfigSpecRejectsMalformedSpecs)
{
    for (const char *bad : {"", "warp-drive", "libra:2x", "libra:x4",
                            "ptr:0x4", "baseline:",
                            "supertile:4:2x4:extra", "libra:2x4x8",
                            "libra:4", "re:4:2x4", "zorder:0x4"}) {
        Result<GpuConfig> cfg = parseConfigSpec(bad);
        EXPECT_FALSE(cfg.isOk()) << "accepted spec '" << bad << "'";
        if (!cfg.isOk()) {
            EXPECT_EQ(cfg.status().code(), ErrorCode::InvalidArgument)
                << bad;
        }
    }

    // A bare supertile is the registry's: default size on the default
    // machine.
    Result<GpuConfig> supertile = parseConfigSpec("supertile");
    ASSERT_TRUE(supertile.isOk()) << supertile.status().toString();
    EXPECT_EQ(supertile->configHash(),
              parseConfigSpec("supertile:4:2x4")->configHash());
}

TEST(FarmProtocol, RequestConfigAppliesResolutionAndThreads)
{
    FarmRequest req;
    req.benchmark = "CCS";
    req.width = 640;
    req.height = 360;
    req.config = "libra:2x2";

    Result<GpuConfig> cfg = farmRequestConfig(req);
    ASSERT_TRUE(cfg.isOk()) << cfg.status().toString();
    EXPECT_EQ(cfg->screenWidth, 640u);
    EXPECT_EQ(cfg->screenHeight, 360u);
    EXPECT_EQ(cfg->rasterUnits, 2u);
    EXPECT_EQ(cfg->coresPerRu, 2u);
}

TEST(FarmProtocol, RetiredThreadCountKeyIsIgnored)
{
    // Older clients sent a simulation thread count on every simulate
    // line, and farm journals they wrote hold those lines. The key is
    // gone from the protocol; such a line must still parse, and name
    // the same configuration as the line without it, so old journals
    // replay.
    const std::string head =
        R"({"schema":"libra.farm_request/1","op":"simulate","id":"j1",)"
        R"("benchmark":"CCS","width":640,"height":360,"frames":4,)"
        R"("first_frame":0,"config":"libra:2x2")";
    Result<FarmRequest> plain = parseFarmRequest(head + "}");
    Result<FarmRequest> legacy =
        parseFarmRequest(head + R"(,"sim_threads":4})");
    ASSERT_TRUE(plain.isOk()) << plain.status().toString();
    ASSERT_TRUE(legacy.isOk()) << legacy.status().toString();
    EXPECT_EQ(farmRequestLine(*legacy), farmRequestLine(*plain));

    Result<GpuConfig> plain_cfg = farmRequestConfig(*plain);
    Result<GpuConfig> legacy_cfg = farmRequestConfig(*legacy);
    ASSERT_TRUE(plain_cfg.isOk()) << plain_cfg.status().toString();
    ASSERT_TRUE(legacy_cfg.isOk()) << legacy_cfg.status().toString();
    EXPECT_EQ(legacy_cfg->configHash(), plain_cfg->configHash());
}

TEST(FarmProtocol, RequestConfigRejectsInvalidResolution)
{
    FarmRequest req;
    req.config = "libra:2x2";
    req.width = 0;
    EXPECT_FALSE(farmRequestConfig(req).isOk());
}

// --- result-cache key ------------------------------------------------

TEST(ResultCacheTest, KeyToStringIsCanonical)
{
    EXPECT_EQ(sampleKey().toString(),
              "cfg:0123456789abcdef:scene:fedcba9876543210:f4@2:v4");
}

TEST(ResultCacheTest, KeyDistinguishesEveryField)
{
    const ResultCacheKey base = sampleKey();
    ResultCacheKey k = base;
    k.configHash ^= 1;
    EXPECT_FALSE(k == base);
    EXPECT_NE(k.toString(), base.toString());
    k = base;
    k.sceneHash ^= 1;
    EXPECT_NE(k.toString(), base.toString());
    k = base;
    k.frames = 5;
    EXPECT_NE(k.toString(), base.toString());
    k = base;
    k.firstFrame = 0;
    EXPECT_NE(k.toString(), base.toString());
    k = base;
    k.codeVersion = 1;
    EXPECT_NE(k.toString(), base.toString());
}

// --- entry image -----------------------------------------------------

TEST(ResultCacheTest, EntryImageRoundTripsReportBytes)
{
    const std::string report =
        R"({"schema":"libra.run_report/1","cycles":123})";
    std::vector<std::uint8_t> image =
        buildResultCacheEntry(sampleKey(), report);
    Result<std::string> back =
        parseResultCacheEntry(sampleKey(), std::move(image));
    ASSERT_TRUE(back.isOk()) << back.status().toString();
    EXPECT_EQ(*back, report);
}

TEST(ResultCacheTest, EntryImageRejectsKeyMismatch)
{
    std::vector<std::uint8_t> image =
        buildResultCacheEntry(sampleKey(), "{}");
    ResultCacheKey other = sampleKey();
    other.configHash ^= 1;
    Result<std::string> back =
        parseResultCacheEntry(other, std::move(image));
    ASSERT_FALSE(back.isOk());
    EXPECT_EQ(back.status().code(), ErrorCode::FailedPrecondition);
}

TEST(ResultCacheTest, EntryImageRejectsBitFlip)
{
    const std::string report(256, 'r');
    std::vector<std::uint8_t> image =
        buildResultCacheEntry(sampleKey(), report);
    image[image.size() / 2] ^= 0x40; // inside the CRC-framed section
    Result<std::string> back =
        parseResultCacheEntry(sampleKey(), std::move(image));
    ASSERT_FALSE(back.isOk());
    EXPECT_EQ(back.status().code(), ErrorCode::CorruptData);
}

// --- directory cache -------------------------------------------------

TEST(ResultCacheTest, StoreThenLookupIsByteExact)
{
    const TempDir dir("store");
    Result<ResultCache> cache = ResultCache::open(dir.str());
    ASSERT_TRUE(cache.isOk()) << cache.status().toString();

    const std::string report =
        R"({"schema":"libra.run_report/1","cycles":9001})";
    EXPECT_FALSE(cache->contains(sampleKey()));
    ASSERT_TRUE(cache->store(sampleKey(), report).isOk());
    EXPECT_TRUE(cache->contains(sampleKey()));

    Result<std::string> got = cache->lookup(sampleKey());
    ASSERT_TRUE(got.isOk()) << got.status().toString();
    EXPECT_EQ(*got, report);

    // Overwrite with new bytes: last store wins, still byte-exact.
    const std::string updated =
        R"({"schema":"libra.run_report/1","cycles":9002})";
    ASSERT_TRUE(cache->store(sampleKey(), updated).isOk());
    EXPECT_EQ(*cache->lookup(sampleKey()), updated);
}

TEST(ResultCacheTest, MissIsNotFound)
{
    const TempDir dir("miss");
    Result<ResultCache> cache = ResultCache::open(dir.str());
    ASSERT_TRUE(cache.isOk());
    Result<std::string> got = cache->lookup(sampleKey());
    ASSERT_FALSE(got.isOk());
    EXPECT_EQ(got.status().code(), ErrorCode::NotFound);
}

TEST(ResultCacheTest, TruncatedEntryDegradesToCorruptData)
{
    const TempDir dir("trunc");
    Result<ResultCache> cache = ResultCache::open(dir.str());
    ASSERT_TRUE(cache.isOk());
    ASSERT_TRUE(cache->store(sampleKey(), std::string(512, 'x')).isOk());

    const std::string file =
        dir.str() + "/" + ResultCache::entryFileName(sampleKey());
    const auto size = std::filesystem::file_size(file);
    std::filesystem::resize_file(file, size / 2);

    Result<std::string> got = cache->lookup(sampleKey());
    ASSERT_FALSE(got.isOk());
    EXPECT_EQ(got.status().code(), ErrorCode::CorruptData);
    EXPECT_FALSE(cache->contains(sampleKey()));
}

TEST(ResultCacheTest, ForeignEntryFileDegradesToFailedPrecondition)
{
    // An entry stored under one key but renamed to another key's file
    // name (or a hash-function change) must be refused at lookup, not
    // served as the wrong report.
    const TempDir dir("mismatch");
    Result<ResultCache> cache = ResultCache::open(dir.str());
    ASSERT_TRUE(cache.isOk());
    ASSERT_TRUE(cache->store(sampleKey(), "{}").isOk());

    ResultCacheKey other = sampleKey();
    other.sceneHash ^= 0xff;
    std::filesystem::rename(
        dir.str() + "/" + ResultCache::entryFileName(sampleKey()),
        dir.str() + "/" + ResultCache::entryFileName(other));

    Result<std::string> got = cache->lookup(other);
    ASSERT_FALSE(got.isOk());
    EXPECT_EQ(got.status().code(), ErrorCode::FailedPrecondition);
}

TEST(ResultCacheTest, TrimEvictsDownToBoundDeterministically)
{
    const TempDir dir("trim");
    Result<ResultCache> cache = ResultCache::open(dir.str());
    ASSERT_TRUE(cache.isOk());

    std::vector<ResultCacheKey> keys;
    for (std::uint32_t i = 0; i < 5; ++i) {
        ResultCacheKey key = sampleKey();
        key.configHash = i;
        keys.push_back(key);
        ASSERT_TRUE(cache->store(key, "{}").isOk());
    }
    Result<std::vector<std::string>> files = cache->entries();
    ASSERT_TRUE(files.isOk());
    ASSERT_EQ(files->size(), 5u);

    // All five share one mtime resolution window, so eviction order
    // falls back to the name tie-break — deterministic by contract.
    Result<std::uint64_t> removed = cache->trim(2);
    ASSERT_TRUE(removed.isOk()) << removed.status().toString();
    EXPECT_EQ(*removed, 3u);
    files = cache->entries();
    ASSERT_TRUE(files.isOk());
    EXPECT_EQ(files->size(), 2u);

    // trim(0) trims *to* zero — "0 disables" is the FarmOptions
    // contract, enforced by the server before it ever calls trim.
    Result<std::uint64_t> all = cache->trim(0);
    ASSERT_TRUE(all.isOk());
    EXPECT_EQ(*all, 2u);
    EXPECT_EQ(cache->entries()->size(), 0u);
}

TEST(ResultCacheTest, SceneHashBindsBenchmarkAndResolution)
{
    // The scene hash is the request-side half of the key: any change to
    // benchmark or resolution must change it, or two different scenes
    // would share cache entries.
    const std::uint64_t base = snapshotSceneHash("CCS", 256, 128);
    EXPECT_NE(base, snapshotSceneHash("SPT", 256, 128));
    EXPECT_NE(base, snapshotSceneHash("CCS", 512, 128));
    EXPECT_NE(base, snapshotSceneHash("CCS", 256, 256));
    EXPECT_EQ(base, snapshotSceneHash("CCS", 256, 128));
}
