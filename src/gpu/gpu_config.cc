#include "gpu/gpu_config.hh"

#include <bit>

#include "common/rng.hh"

namespace libra
{

namespace
{

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Hard ceilings keeping a misconfigured run from exhausting memory. */
constexpr std::uint32_t maxScreenDim = 16384;
constexpr std::uint32_t maxTileSize = 1024;
constexpr std::uint32_t maxRasterUnits = 64;
constexpr std::uint32_t maxCoresPerRu = 64;
constexpr std::uint32_t maxWarpsPerCore = 256;

Status
validateCache(const CacheConfig &cache)
{
    if (cache.sizeBytes == 0 || cache.ways == 0 || cache.lineBytes == 0) {
        return Status::error(ErrorCode::InvalidArgument, cache.name,
                             ": size, ways and line bytes must be > 0");
    }
    if (!isPow2(cache.lineBytes) || cache.lineBytes < 8) {
        return Status::error(ErrorCode::InvalidArgument, cache.name,
                             ": line size ", cache.lineBytes,
                             " must be a power of two >= 8");
    }
    const std::uint64_t way_bytes =
        std::uint64_t(cache.ways) * cache.lineBytes;
    if (cache.sizeBytes % way_bytes != 0) {
        return Status::error(ErrorCode::InvalidArgument, cache.name,
                             ": size ", cache.sizeBytes,
                             " is not a multiple of ways x line (",
                             way_bytes, ")");
    }
    if (!isPow2(cache.sizeBytes / way_bytes)) {
        return Status::error(ErrorCode::InvalidArgument, cache.name,
                             ": set count ", cache.sizeBytes / way_bytes,
                             " must be a power of two");
    }
    if (cache.mshrs == 0 || cache.portsPerCycle == 0) {
        return Status::error(ErrorCode::InvalidArgument, cache.name,
                             ": MSHRs and ports must be > 0");
    }
    return Status::ok();
}

Status
validateDram(const DramConfig &dram)
{
    if (dram.channels == 0 || dram.banksPerChannel == 0) {
        return Status::error(ErrorCode::InvalidArgument,
                             "dram: channels and banks must be > 0");
    }
    if (!isPow2(dram.lineBytes) || dram.lineBytes < 8) {
        return Status::error(ErrorCode::InvalidArgument,
                             "dram: line size ", dram.lineBytes,
                             " must be a power of two >= 8");
    }
    if (dram.rowBytes < dram.lineBytes
        || dram.rowBytes % dram.lineBytes != 0) {
        return Status::error(ErrorCode::InvalidArgument,
                             "dram: row size ", dram.rowBytes,
                             " must be a multiple of the line size ",
                             dram.lineBytes);
    }
    if (dram.interleaveLines == 0 || dram.schedulerWindow == 0) {
        return Status::error(
            ErrorCode::InvalidArgument,
            "dram: interleave and scheduler window must be > 0");
    }
    if (dram.writeLowWatermark > dram.writeHighWatermark) {
        return Status::error(ErrorCode::InvalidArgument,
                             "dram: write low watermark ",
                             dram.writeLowWatermark,
                             " exceeds the high watermark ",
                             dram.writeHighWatermark);
    }
    return Status::ok();
}

/** Incremental FNV-style mixer over heterogeneous config fields. */
class ConfigHasher
{
  public:
    void
    mix(std::uint64_t v)
    {
        state = hashCombine(state, v);
    }

    void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
    void mix(bool v) { mix(std::uint64_t(v ? 1 : 0)); }

    void
    mix(const CacheConfig &cache)
    {
        // The name is identity, not geometry; two caches configured
        // identically must hash identically.
        mix(std::uint64_t(cache.sizeBytes));
        mix(std::uint64_t(cache.ways));
        mix(std::uint64_t(cache.lineBytes));
        mix(std::uint64_t(cache.hitLatency));
        mix(std::uint64_t(cache.mshrs));
        mix(std::uint64_t(cache.portsPerCycle));
        mix(cache.writeAllocate);
        mix(cache.alwaysHit);
    }

    void
    mix(const DramConfig &dram)
    {
        mix(std::uint64_t(dram.channels));
        mix(std::uint64_t(dram.banksPerChannel));
        mix(std::uint64_t(dram.rowBytes));
        mix(std::uint64_t(dram.lineBytes));
        mix(std::uint64_t(dram.interleaveLines));
        mix(std::uint64_t(dram.ctrlLatency));
        mix(std::uint64_t(dram.tCas));
        mix(std::uint64_t(dram.tRcd));
        mix(std::uint64_t(dram.tRp));
        mix(std::uint64_t(dram.tBurst));
        mix(std::uint64_t(dram.tWr));
        mix(std::uint64_t(dram.schedulerWindow));
        mix(std::uint64_t(dram.starvationLimit));
        mix(std::uint64_t(dram.writeHighWatermark));
        mix(std::uint64_t(dram.writeLowWatermark));
    }

    std::uint64_t value() const { return state; }

  private:
    std::uint64_t state = 0x11b2a'c0f1ull; // arbitrary fixed basis
};

} // namespace

std::uint64_t
GpuConfig::configHash() const
{
    ConfigHasher h;
    h.mix(std::uint64_t(screenWidth));
    h.mix(std::uint64_t(screenHeight));
    h.mix(std::uint64_t(tileSize));
    h.mix(std::uint64_t(rasterUnits));
    h.mix(std::uint64_t(coresPerRu));
    h.mix(std::uint64_t(warpsPerCore));
    h.mix(std::uint64_t(warpQuads));
    h.mix(std::uint64_t(pendingWarpsPerCore));
    h.mix(std::uint64_t(rasterQuadsPerCycle));
    h.mix(std::uint64_t(earlyZQuadsPerCycle));
    h.mix(std::uint64_t(blendQuadsPerCycle));
    h.mix(std::uint64_t(flushLinesPerCycle));
    h.mix(std::uint64_t(vertexProcessors));
    h.mix(std::uint64_t(binTilesPerCycle));
    h.mix(std::uint64_t(fifoDepth));
    h.mix(std::uint64_t(listEntryBytes));
    h.mix(std::uint64_t(primRecordBytes));
    h.mix(vertexCache);
    h.mix(tileCache);
    h.mix(textureCache);
    h.mix(l2);
    h.mix(dram);
    h.mix(idealMemory);
    h.mix(std::uint64_t(sched.policy));
    h.mix(std::uint64_t(sched.staticSupertileSize));
    h.mix(std::uint64_t(sched.initialSupertileSize));
    h.mix(sched.hitRatioThreshold);
    h.mix(sched.orderSwitchThreshold);
    h.mix(sched.resizeThreshold);
    h.mix(std::uint64_t(sched.minSupertileSize));
    h.mix(std::uint64_t(sched.maxSupertileSize));
    h.mix(std::uint64_t(sched.hotRasterUnits));
    h.mix(transactionElimination);
    h.mix(fbCompressionRatio);
    h.mix(renderingElimination);
    // captureImage changes the *payload* of a result (per-pixel hash
    // image present or not), so results keyed by this hash must include
    // it even though it never changes a counter. The remaining runtime
    // attachments (watchdog, cancel, faults, traceEvents,
    // checkInvariants) never change what a successful run returns and
    // are deliberately excluded.
    h.mix(captureImage);
    return h.value();
}

std::uint64_t
GpuConfig::warmPrefixHash() const
{
    GpuConfig pinned = *this;
    pinned.faults.reset(); // never hashed, but keep the copy cheap
    pinned.sched.resizeThreshold = 0.0;
    pinned.sched.orderSwitchThreshold = 0.0;
    return pinned.configHash();
}

Status
GpuConfig::validate() const
{
    // --- Screen and tile grid -----------------------------------------
    if (screenWidth == 0 || screenHeight == 0 || screenWidth > maxScreenDim
        || screenHeight > maxScreenDim) {
        return Status::error(ErrorCode::InvalidArgument, "screen ",
                             screenWidth, "x", screenHeight,
                             " out of range [1, ", maxScreenDim, "]^2");
    }
    if (tileSize == 0 || tileSize > maxTileSize) {
        return Status::error(ErrorCode::InvalidArgument, "tile size ",
                             tileSize, " out of range [1, ", maxTileSize,
                             "]");
    }
    if (tileSize > screenWidth && tileSize > screenHeight) {
        return Status::error(ErrorCode::InvalidArgument, "tile size ",
                             tileSize, " exceeds the whole ", screenWidth,
                             "x", screenHeight, " screen");
    }

    // --- Raster Unit / core organization vs warp configuration --------
    if (rasterUnits == 0 || rasterUnits > maxRasterUnits) {
        return Status::error(ErrorCode::InvalidArgument, "raster units ",
                             rasterUnits, " out of range [1, ",
                             maxRasterUnits, "]");
    }
    if (coresPerRu == 0 || coresPerRu > maxCoresPerRu) {
        return Status::error(ErrorCode::InvalidArgument, "cores per RU ",
                             coresPerRu, " out of range [1, ",
                             maxCoresPerRu, "]");
    }
    if (warpsPerCore == 0 || warpsPerCore > maxWarpsPerCore) {
        return Status::error(ErrorCode::InvalidArgument, "warps per core ",
                             warpsPerCore, " out of range [1, ",
                             maxWarpsPerCore, "]");
    }
    if (warpQuads == 0 || pendingWarpsPerCore == 0) {
        return Status::error(
            ErrorCode::InvalidArgument,
            "warp quads and pending warps per core must be > 0");
    }
    // Each RU must be able to hold a whole tile's worth of in-flight
    // warps making forward progress: at least one resident slot.
    const std::uint64_t tile_quads =
        std::uint64_t(tileSize) * tileSize / 4;
    if (warpQuads > std::max<std::uint64_t>(tile_quads, 1)) {
        return Status::error(ErrorCode::InvalidArgument, "warp of ",
                             warpQuads, " quads exceeds a whole ",
                             tileSize, "x", tileSize, " tile (",
                             tile_quads, " quads)");
    }

    // --- Fixed-function throughput ------------------------------------
    if (rasterQuadsPerCycle == 0 || earlyZQuadsPerCycle == 0
        || blendQuadsPerCycle == 0 || flushLinesPerCycle == 0) {
        return Status::error(
            ErrorCode::InvalidArgument,
            "per-cycle throughputs must all be > 0");
    }
    if (vertexProcessors == 0 || binTilesPerCycle == 0) {
        return Status::error(
            ErrorCode::InvalidArgument,
            "geometry pipeline widths must be > 0");
    }
    if (fifoDepth < 2) {
        return Status::error(ErrorCode::InvalidArgument, "FIFO depth ",
                             fifoDepth,
                             " too small: needs >= 2 (TileBegin+TileEnd)");
    }
    if (listEntryBytes == 0 || primRecordBytes == 0) {
        return Status::error(
            ErrorCode::InvalidArgument,
            "parameter-buffer record sizes must be > 0");
    }

    // --- Memory hierarchy ---------------------------------------------
    for (const CacheConfig *cache :
         {&vertexCache, &tileCache, &textureCache, &l2}) {
        if (Status st = validateCache(*cache); !st.isOk())
            return st;
    }
    if (Status st = validateDram(dram); !st.isOk())
        return st;

    // --- Scheduling ------------------------------------------------------
    if (sched.hotRasterUnits == 0 || sched.hotRasterUnits >= rasterUnits) {
        // One RU: the hot/cold split is meaningless but harmless; only
        // reject nonsensical values when the split is actually used.
        if (rasterUnits > 1) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "hot raster units ",
                                 sched.hotRasterUnits,
                                 " must be in [1, ", rasterUnits - 1,
                                 "] with ", rasterUnits, " RUs");
        }
    }
    if (sched.minSupertileSize == 0
        || sched.maxSupertileSize < sched.minSupertileSize) {
        return Status::error(ErrorCode::InvalidArgument,
                             "supertile size range [",
                             sched.minSupertileSize, ", ",
                             sched.maxSupertileSize, "] is empty");
    }
    if (sched.staticSupertileSize == 0
        || sched.initialSupertileSize == 0) {
        return Status::error(ErrorCode::InvalidArgument,
                             "supertile sizes must be > 0");
    }

    // --- Extensions ------------------------------------------------------
    if (!(fbCompressionRatio > 0.0) || fbCompressionRatio > 1.0) {
        return Status::error(ErrorCode::InvalidArgument,
                             "framebuffer compression ratio ",
                             fbCompressionRatio, " must be in (0, 1]");
    }
    return Status::ok();
}

} // namespace libra
