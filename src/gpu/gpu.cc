#include "gpu/gpu.hh"

#include <algorithm>
#include <sstream>

#include "check/fault_injector.hh"
#include "check/snapshot.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "sim/watchdog.hh"

namespace libra
{

Gpu::Gpu(const GpuConfig &cfg)
    : config(cfg),
      grid(cfg.screenWidth, cfg.screenHeight, cfg.tileSize),
      tempTable(grid.tileCount())
{
    libra_assert(config.rasterUnits > 0 && config.coresPerRu > 0,
                 "GPU needs Raster Units and cores");

    dramModel = std::make_unique<Dram>(queue, config.dram);
    idealSink = std::make_unique<IdealMemory>(queue, 0);

    CacheConfig l2_cfg = config.l2;
    CacheConfig vtx_cfg = config.vertexCache;
    CacheConfig tile_cfg = config.tileCache;
    if (config.idealMemory) {
        l2_cfg.alwaysHit = true;
        vtx_cfg.alwaysHit = true;
        tile_cfg.alwaysHit = true;
    }

    l2 = std::make_unique<Cache>(queue, l2_cfg, *dramModel);
    vertexCache = std::make_unique<Cache>(queue, vtx_cfg, *l2);
    tileCache = std::make_unique<Cache>(queue, tile_cfg, *l2);

    MemSink &fb_sink = config.idealMemory
        ? static_cast<MemSink &>(*idealSink)
        : static_cast<MemSink &>(*dramModel);

    // One private texture L1 per shader core, all behind the shared L2.
    for (std::uint32_t ru = 0; ru < config.rasterUnits; ++ru) {
        for (std::uint32_t c = 0; c < config.coresPerRu; ++c) {
            CacheConfig tex_cfg = config.textureCache;
            std::ostringstream name;
            name << "tex_l1_ru" << ru << "_c" << c;
            tex_cfg.name = name.str();
            if (config.idealMemory)
                tex_cfg.alwaysHit = true;
            texL1s.push_back(std::make_unique<Cache>(queue, tex_cfg, *l2));
            replTracker.attach(*texL1s.back());
        }
    }

    GeometryConfig geom_cfg;
    geom_cfg.vertexProcessors = config.vertexProcessors;
    geom_cfg.binEntriesPerCycle = config.binTilesPerCycle;
    geometry = std::make_unique<GeometryPipeline>(queue, geom_cfg,
                                                  *vertexCache, *l2);

    for (std::uint32_t ru = 0; ru < config.rasterUnits; ++ru) {
        RasterUnitConfig ru_cfg;
        ru_cfg.index = ru;
        ru_cfg.tileSize = config.tileSize;
        ru_cfg.cores = config.coresPerRu;
        ru_cfg.warpsPerCore = config.warpsPerCore;
        ru_cfg.warpQuads = config.warpQuads;
        ru_cfg.pendingWarpsPerCore = config.pendingWarpsPerCore;
        ru_cfg.rasterQuadsPerCycle = config.rasterQuadsPerCycle;
        ru_cfg.earlyZQuadsPerCycle = config.earlyZQuadsPerCycle;
        ru_cfg.blendQuadsPerCycle = config.blendQuadsPerCycle;
        ru_cfg.flushLinesPerCycle = config.flushLinesPerCycle;
        ru_cfg.fifoDepth = config.fifoDepth;
        ru_cfg.captureImage = config.captureImage;
        ru_cfg.transactionElimination = config.transactionElimination;
        ru_cfg.fbCompressionRatio = config.fbCompressionRatio;

        std::vector<Cache *> l1s;
        for (std::uint32_t c = 0; c < config.coresPerRu; ++c)
            l1s.push_back(texL1s[ru * config.coresPerRu + c].get());

        rus.push_back(std::make_unique<RasterUnit>(queue, ru_cfg, grid,
                                                   fb_sink, l1s));
        RasterUnit *unit = rus.back().get();
        unit->flushNeeded = [this](TileId tile, std::uint64_t sig) {
            const bool changed = tileSignatures[tile] != sig;
            tileSignatures[tile] = sig;
            return changed;
        };
        unit->onTileDone = [this](const TileDoneInfo &info) {
            applyTileDone(info);
        };
    }

    tileSched = std::make_unique<TileScheduler>(config.sched, grid,
                                                config.rasterUnits);
    if (config.renderingElimination) {
        // Skip decisions read the precomputed per-frame skip set; both
        // hooks run at scheduler handout (the fetcher).
        tileSched->skipTile = [this](TileId tile) {
            return reSkipTile[tile] != 0;
        };
        tileSched->onTileSkipped = [this](TileId tile) {
            applyTileSkipped(tile);
        };
    }
    std::vector<RasterSink *> ru_ptrs;
    for (auto &unit : rus)
        ru_ptrs.push_back(unit.get());
    fetcher = std::make_unique<TileFetcher>(queue, *tileCache, ru_ptrs,
                                            *tileSched);

    // DRAM observer: attribute accesses to tiles (temperature table) and
    // sample the Fig. 7 bandwidth timeline during the raster phase.
    dramModel->setObserver([this](const DramAccessInfo &info) {
        if (info.tileTag != invalidId
            && info.tileTag < grid.tileCount()) {
            tempTable.addDramAccess(info.tileTag);
            ++frameAttributedDram;
        }
        if (rasterActive)
            dramSampler.record(info.queued);
    });

    // Register the full stat tree.
    statGroup.addChild(dramModel->stats());
    statGroup.addChild(l2->stats());
    statGroup.addChild(vertexCache->stats());
    statGroup.addChild(tileCache->stats());
    for (auto &tex : texL1s)
        statGroup.addChild(tex->stats());
    for (auto &unit : rus)
        statGroup.addChild(unit->stats());

    // Arm the low-level injection knobs from the attached fault plan.
    // The injector is shared across Gpu rebuilds (the runner builds a
    // fresh Gpu after a watchdog skip), but the knobs are plain
    // periods, so re-arming them on a fresh model is exactly the
    // "machine rebooted" semantics the fault model wants.
    if (FaultInjector *f = config.faults.get()) {
        l2->testDropFillEvery = f->dropFillEvery(l2_cfg.name);
        vertexCache->testDropFillEvery = f->dropFillEvery(vtx_cfg.name);
        tileCache->testDropFillEvery = f->dropFillEvery(tile_cfg.name);
        for (auto &tex : texL1s)
            tex->testDropFillEvery = f->dropFillEvery(tex->cfg().name);
        dramModel->testStallEvery = f->dramStallEvery();
        dramModel->testStallTicks = f->dramStallTicks();
    }

    if (config.renderingElimination) {
        reStats.add("tiles_skipped", &reTilesSkipped);
        reStats.add("signature_collisions", &reSignatureCollisions);
        statGroup.addChild(reStats);
        reWeakSig.resize(grid.tileCount(), 0);
        reStrongSig.resize(grid.tileCount(), 0);
        reSkipTile.resize(grid.tileCount(), 0);
    }

    tileInstr.resize(grid.tileCount(), 0);
    tileFlushCount.resize(grid.tileCount(), 0);
    tileSkipCount.resize(grid.tileCount(), 0);
    // Seed with a sentinel so every tile flushes on the first frame.
    tileSignatures.resize(grid.tileCount(),
                          0xfeedfacecafebeefull);
    if (config.captureImage) {
        image.resize(static_cast<std::size_t>(config.screenWidth)
                     * config.screenHeight, 0);
    }
}

Gpu::~Gpu() = default;

void
Gpu::setTraceSink(TraceSink *sink)
{
    traceSink = sink;
    if (!sink) {
        gpuLane = nullptr;
        dramLane = nullptr;
        for (auto &unit : rus)
            unit->setTraceLane(nullptr, 0);
        return;
    }
    gpuLane = &sink->lane("gpu");
    dramLane = &sink->lane("dram");
    nameFrame = sink->nameId("frame");
    nameGeometry = sink->nameId("geometry");
    nameRaster = sink->nameId("raster");
    nameDramRequests = sink->nameId("dram_requests");
    const std::uint32_t tile_name = sink->nameId("tile");
    for (std::size_t i = 0; i < rus.size(); ++i) {
        TraceSink::Lane &lane =
            sink->lane("ru" + std::to_string(i));
        rus[i]->setTraceLane(&lane, tile_name);
    }
}

Gpu::RawTotals
Gpu::collectTotals() const
{
    RawTotals t;
    for (const auto &tex : texL1s) {
        // Secondary misses (coalesced into an in-flight fill) count as
        // hits: they are texture-unit request merging, not extra DRAM
        // pressure, matching how trace-driven GPU models report the
        // texture-cache hit ratio.
        t.texHits += tex->hits.value() + tex->mshrCoalesced.value();
        t.texMisses += tex->misses.value();
        t.l1Accesses += tex->readAccesses.value()
            + tex->writeAccesses.value();
    }
    t.l1Accesses += vertexCache->readAccesses.value()
        + vertexCache->writeAccesses.value()
        + tileCache->readAccesses.value()
        + tileCache->writeAccesses.value();
    t.l2Accesses = l2->readAccesses.value() + l2->writeAccesses.value();
    t.l2Hits = l2->hits.value();
    t.l2Misses = l2->misses.value();
    t.dramReads = dramModel->reads.value();
    t.dramWrites = dramModel->writes.value();
    t.dramActs = dramModel->activates.value();
    t.dramReadLatSum = dramModel->totalReadLatency.value();
    for (const auto &unit : rus) {
        t.texLatSum += unit->texLatencySum.value();
        t.texReqs += unit->texRequests.value();
        t.quads += unit->quadsProduced.value();
    }
    t.vertices = geometry->verticesProcessed.value();
    t.replInstalls = replTracker.installs();
    t.replReplicated = replTracker.replicatedInstalls();
    return t;
}

std::string
Gpu::diagnosticState() const
{
    std::ostringstream os;
    os << "tick " << queue.now() << ", tiles flushed " << tilesFlushed
       << "/" << grid.tileCount() << ", pending events "
       << queue.pending() << ", outstanding DRAM requests "
       << dramModel->pendingRequests();
    for (std::size_t i = 0; i < rus.size(); ++i) {
        const RasterUnit &unit = *rus[i];
        os << "; RU" << i << ": ";
        if (unit.idle()) {
            os << "idle";
            continue;
        }
        os << "tile ";
        if (unit.currentTile() == invalidId)
            os << "-";
        else
            os << unit.currentTile();
        if (unit.aheadTile() != invalidId)
            os << " (ahead " << unit.aheadTile() << ")";
        os << ", fifo " << unit.fifoEntries() << "/" << config.fifoDepth
           << ", pending warps " << unit.pendingWarpCount();
    }
    return os.str();
}

Status
Gpu::wedge(const Status &st, const char *phase)
{
    isWedged = true;
    rasterActive = false;
    const std::string diag = diagnosticState();
    warn("watchdog: ", phase, " phase wedged: ", st.toString(), " [",
         diag, "]");
    return Status::error(st.code(), phase, " phase: ", st.message(),
                         " [", diag, "]");
}

void
Gpu::applyTileDone(const TileDoneInfo &info)
{
    ++tilesFlushed;
    ++tileFlushCount[info.tile];
    tileInstr[info.tile] += info.instructions;
    tempTable.addInstructions(info.tile, info.instructions);
    frameInstructions += info.instructions;
    frameFragments += info.fragments;
    frameWarps += info.warps;
    if (config.captureImage && info.colorBuffer) {
        const IRect &r = info.rect;
        for (std::int32_t y = r.y0; y < r.y1; ++y) {
            for (std::int32_t x = r.x0; x < r.x1; ++x) {
                image[static_cast<std::size_t>(y) * config.screenWidth
                      + static_cast<std::size_t>(x)] =
                    (*info.colorBuffer)
                        [static_cast<std::size_t>(y - r.y0)
                             * config.tileSize
                         + static_cast<std::size_t>(x - r.x0)];
            }
        }
    }
}

void
Gpu::applyTileSkipped(TileId tile)
{
    // A skipped tile is covered for this frame without rendering: it
    // counts toward the frame's flush total (the raster loop's
    // termination condition) and into its own per-tile vector so the
    // coverage law can assert rendered + skipped == 1 per tile.
    ++tilesFlushed;
    ++tileSkipCount[tile];
    ++reTilesSkipped;
    ++frameTilesSkipped;
}

void
Gpu::computeReSignatures(const BinnedFrame &binned)
{
    // Distinct fixed bases so the weak and strong hashes of identical
    // content never agree by construction; the strong hash additionally
    // perturbs every primitive hash so the two chains diverge.
    constexpr std::uint64_t weak_basis = 0x5eba5e17ad09f00dull;
    constexpr std::uint64_t strong_basis = 0x0ddba11c0ffee123ull;
    constexpr std::uint64_t strong_xor = 0x9e3779b97f4a7c15ull;

    for (TileId t = 0; t < grid.tileCount(); ++t) {
        std::uint64_t weak = weak_basis;
        std::uint64_t strong = strong_basis;
        for (const std::uint32_t idx : binned.tileLists[t]) {
            const std::uint64_t h = primContentHash(binned.tris[idx]);
            weak = hashCombine(weak, h);
            strong = hashCombine(strong, h ^ strong_xor);
        }
        // Skip iff the weak input signature matches the previous
        // frame's (the hardware decision). A strong mismatch under a
        // weak match is an aliasing event: the tile is still skipped —
        // modeling the real mechanism's (vanishingly rare) error — but
        // counted so the model's exposure is observable.
        bool skip = false;
        if (reSigValid && weak == reWeakSig[t]) {
            skip = true;
            if (strong != reStrongSig[t])
                ++reSignatureCollisions;
        }
        reSkipTile[t] = skip ? 1 : 0;
        reWeakSig[t] = weak;
        reStrongSig[t] = strong;
    }
    reSigValid = true;
}

FrameStats
Gpu::renderFrame(const FrameData &frame, const TexturePool &pool)
{
    Result<FrameStats> result = tryRenderFrame(frame, pool);
    if (!result.isOk())
        panic("renderFrame: ", result.status().toString());
    return std::move(*result);
}

Result<FrameStats>
Gpu::tryRenderFrame(const FrameData &frame, const TexturePool &pool)
{
    if (isWedged) {
        return Status::error(
            ErrorCode::FailedPrecondition,
            "Gpu was wedged by an earlier watchdog error; simulated "
            "state is inconsistent — build a fresh Gpu");
    }

    const Tick frame_start = queue.now();
    Watchdog watchdog(config.watchdog, frame_start);

    // Injected watchdog trip: abort this frame exactly as a genuine
    // expiry would (the Gpu wedges; the runner's skip path rebuilds).
    // Keyed on the injector's own frame counter, which is monotonic
    // across rebuilds, so a trip at frame N fires once per attempt.
    if (FaultInjector *f = config.faults.get()) {
        const std::uint64_t injector_frame = f->frameStarted();
        if (f->tripWatchdogAtFrame(injector_frame)) {
            return wedge(Status::error(ErrorCode::WatchdogExpired,
                                       "injected watchdog trip (fault "
                                       "plan frame ", injector_frame,
                                       ")"),
                         "geometry");
        }
    }

    const RawTotals before = collectTotals();

    // Per-RU phase attribution: close the pre-frame span so the deltas
    // taken at frame end partition exactly [frame_start, frame_end).
    std::vector<std::array<std::uint64_t, kNumRuPhases>> phase_base;
    phase_base.reserve(rus.size());
    for (auto &unit : rus) {
        unit->syncPhase(frame_start);
        phase_base.push_back(unit->phases().snapshot());
    }

    if (gpuLane) {
        gpuLane->begin(nameFrame, frame_start, framesRendered);
        gpuLane->begin(nameGeometry, frame_start, 0);
    }

    // Functional binning (the timing is charged by GeometryPipeline).
    const BinnedFrame binned = binFrame(frame, grid);

    // Rendering Elimination input-signature stage: hash every tile's
    // binned content and fix this frame's skip set before any tile is
    // handed out. Functional (zero modeled cycles): real hardware folds
    // this hashing into the binning writes of the *previous* frame.
    if (config.renderingElimination)
        computeReSignatures(binned);

    // Scheduler decision for this frame, from last frame's feedback —
    // the ranking happens in parallel with the geometry phase (§III-E).
    tileSched->beginFrame(feedback);

    // The parameter buffer is rewritten every frame: stale Tile-cache
    // lines from the previous frame must not hit.
    tileCache->invalidateAll();

    tempTable.reset();
    frameAttributedDram = 0;
    std::fill(tileFlushCount.begin(), tileFlushCount.end(), 0u);
    std::fill(tileSkipCount.begin(), tileSkipCount.end(), 0u);
    std::fill(tileInstr.begin(), tileInstr.end(), 0);
    frameTilesSkipped = 0;
    // Under Rendering Elimination the frame buffer persists: a skipped
    // tile's pixels must remain from the previous frame, and every
    // rendered tile overwrites its whole rect anyway.
    if (config.captureImage && !config.renderingElimination)
        std::fill(image.begin(), image.end(), 0);
    tilesFlushed = 0;
    frameInstructions = 0;
    frameFragments = 0;
    frameWarps = 0;

    // --- Geometry phase ------------------------------------------------
    bool geom_done = false;
    Tick geom_end = frame_start;
    geometry->run(frame, binned, [&](Tick when) {
        geom_done = true;
        geom_end = when;
    });
    while (!geom_done) {
        if (Status st = watchdog.check(queue.now()); !st.isOk())
            return wedge(st, "geometry");
        if (!queue.runOne()) {
            return wedge(Status::error(ErrorCode::NoProgress,
                                       "event queue drained with the "
                                       "geometry phase incomplete"),
                         "geometry");
        }
    }
    watchdog.progress(queue.now());
    if (gpuLane)
        gpuLane->end(geom_end); // geometry

    // The temperature ranking must hide under the geometry phase
    // (§III-E). Warn if a configuration ever violates that.
    if (tileSched->lastRankingCycles() > geom_end - frame_start) {
        warn("ranking (", tileSched->lastRankingCycles(),
             " cycles) exceeds the geometry phase (",
             geom_end - frame_start, " cycles)");
    }

    // --- Raster phase ----------------------------------------------------
    rasterStartTick = queue.now();
    dramSampler.reset(rasterStartTick, kDramTimelineInterval);
    rasterActive = true;
    if (gpuLane)
        gpuLane->begin(nameRaster, rasterStartTick, 0);
    for (auto &unit : rus)
        unit->beginFrame(binned, pool);
    fetcher->beginFrame(binned);

    std::uint32_t last_flushed = tilesFlushed;
    while (tilesFlushed < grid.tileCount()) {
        if (tilesFlushed != last_flushed) {
            last_flushed = tilesFlushed;
            watchdog.progress(queue.now());
        }
        if (Status st = watchdog.check(queue.now()); !st.isOk())
            return wedge(st, "raster");
        if (!queue.runOne()) {
            return wedge(Status::error(ErrorCode::NoProgress,
                                       "event queue drained with ",
                                       grid.tileCount() - tilesFlushed,
                                       " tiles pending"),
                         "raster");
        }
    }
    watchdog.progress(queue.now());
    // Drain stragglers (in-flight write-backs, bookkeeping events),
    // still under the watchdog's eye.
    while (!queue.empty()) {
        if (Status st = watchdog.check(queue.now()); !st.isOk())
            return wedge(st, "drain");
        queue.runOne();
    }
    rasterActive = false;

    for (auto &unit : rus)
        libra_assert(unit->idle(), "Raster Unit not idle at frame end");

    const Tick frame_end = queue.now();
    for (auto &unit : rus)
        unit->syncPhase(frame_end);
    if (gpuLane) {
        gpuLane->end(frame_end); // raster
        gpuLane->end(frame_end); // frame
    }
    if (dramLane)
        dramSampler.flushTo(*dramLane, nameDramRequests);
    const RawTotals after = collectTotals();

    // --- Package the stats ----------------------------------------------
    FrameStats fs;
    fs.frameIndex = framesRendered++;
    fs.totalCycles = frame_end - frame_start;
    fs.geomCycles = geom_end - frame_start;
    fs.rasterCycles = frame_end - rasterStartTick;

    fs.dramReads = after.dramReads - before.dramReads;
    fs.dramWrites = after.dramWrites - before.dramWrites;
    fs.dramActivates = after.dramActs - before.dramActs;
    fs.avgDramReadLatency = fs.dramReads == 0
        ? 0.0
        : static_cast<double>(after.dramReadLatSum
                              - before.dramReadLatSum)
            / static_cast<double>(fs.dramReads);

    const std::uint64_t tex_hits = after.texHits - before.texHits;
    const std::uint64_t tex_misses = after.texMisses - before.texMisses;
    fs.textureHitRatio = tex_hits + tex_misses == 0
        ? 1.0
        : static_cast<double>(tex_hits) / (tex_hits + tex_misses);
    fs.textureMisses = tex_misses;
    fs.textureL1Accesses = tex_hits + tex_misses;
    fs.textureRequests = after.texReqs - before.texReqs;
    fs.avgTextureLatency = fs.textureRequests == 0
        ? 0.0
        : static_cast<double>(after.texLatSum - before.texLatSum)
            / static_cast<double>(fs.textureRequests);

    const std::uint64_t l2_hits = after.l2Hits - before.l2Hits;
    const std::uint64_t l2_misses = after.l2Misses - before.l2Misses;
    fs.l2HitRatio = l2_hits + l2_misses == 0
        ? 1.0
        : static_cast<double>(l2_hits) / (l2_hits + l2_misses);

    const std::uint64_t repl_installs =
        after.replInstalls - before.replInstalls;
    const std::uint64_t repl_repl =
        after.replReplicated - before.replReplicated;
    fs.replicationRatio = repl_installs == 0
        ? 0.0
        : static_cast<double>(repl_repl)
            / static_cast<double>(repl_installs);

    fs.instructions = frameInstructions;
    fs.fragments = frameFragments;
    fs.warps = frameWarps;
    fs.quads = after.quads - before.quads;

    fs.tileDram = tempTable.dramVector();
    fs.tileInstr = tileInstr;
    fs.dramTimeline = dramSampler.samples();
    fs.dramTimelineInterval =
        static_cast<std::uint32_t>(dramSampler.intervalTicks());

    fs.ruPhases.reserve(rus.size());
    for (std::size_t i = 0; i < rus.size(); ++i) {
        const auto snap = rus[i]->phases().snapshot();
        std::array<std::uint64_t, kNumRuPhases> delta{};
        for (std::size_t p = 0; p < kNumRuPhases; ++p)
            delta[p] = snap[p] - phase_base[i][p];
        fs.ruPhases.push_back(delta);
    }

    fs.temperatureOrder = tileSched->temperatureOrderActive();
    fs.supertileSize = tileSched->supertileSize();
    fs.rankingCycles = tileSched->lastRankingCycles();

    if (config.renderingElimination) {
        fs.reTilesSkipped = frameTilesSkipped;
        fs.reSkippedTiles.assign(reSkipTile.begin(), reSkipTile.end());
    }

    EnergyEvents ev;
    ev.warpInstructions = frameInstructions;
    ev.l1Accesses = after.l1Accesses - before.l1Accesses;
    ev.l2Accesses = after.l2Accesses - before.l2Accesses;
    ev.dramLines = fs.dramReads + fs.dramWrites;
    ev.dramActivates = fs.dramActivates;
    ev.rasterQuads = fs.quads;
    ev.blendQuads = fs.quads;
    ev.vertices = after.vertices - before.vertices;
    ev.cycles = fs.totalCycles;
    fs.energy = computeEnergy(energyParams, ev);

    if (config.captureImage)
        fs.image = image;

    if (config.checkInvariants) {
        if (Status st = checkFrameInvariants(fs); !st.isOk())
            return st;
    }

    // Feedback for the next frame's scheduling decisions.
    feedback.valid = true;
    feedback.rasterCycles = fs.rasterCycles;
    feedback.textureHitRatio = fs.textureHitRatio;
    feedback.tileDramAccesses = fs.tileDram;
    feedback.tileInstructions = fs.tileInstr;

    return fs;
}

void
Gpu::saveState(SnapshotWriter &w) const
{
    libra_assert(!isWedged, "snapshot of a wedged Gpu");
    libra_assert(!rasterActive, "snapshot taken mid-frame");
    for (const auto &unit : rus)
        libra_assert(unit->idle(), "snapshot with a busy Raster Unit");

    w.beginSection(SnapSection::Engine);
    queue.exportState(w);
    w.endSection();

    w.beginSection(SnapSection::Caches);
    l2->saveState(w);
    vertexCache->saveState(w);
    tileCache->saveState(w);
    w.putU64(texL1s.size());
    for (const auto &tex : texL1s)
        tex->saveState(w);
    w.endSection();

    w.beginSection(SnapSection::Dram);
    dramModel->saveState(w);
    w.endSection();

    w.beginSection(SnapSection::Replication);
    replTracker.exportState(w);
    w.endSection();

    w.beginSection(SnapSection::Scheduler);
    tileSched->exportState(w);
    w.endSection();

    w.beginSection(SnapSection::RasterUnits);
    w.putU64(rus.size());
    for (const auto &unit : rus)
        unit->saveState(w);
    w.endSection();

    w.beginSection(SnapSection::GpuCore);
    w.putU32(framesRendered);
    w.putU64(tileSignatures.size());
    for (const std::uint64_t sig : tileSignatures)
        w.putU64(sig);
    // Rendering Elimination signature table (empty when the mechanism
    // is off; the restore target has the same config, so the layout
    // matches). Serialized state layout change: kSnapshotCodeVersion 2.
    w.putBool(reSigValid);
    w.putU64(reWeakSig.size());
    for (const std::uint64_t sig : reWeakSig)
        w.putU64(sig);
    w.putU64(reStrongSig.size());
    for (const std::uint64_t sig : reStrongSig)
        w.putU64(sig);
    w.putBool(feedback.valid);
    w.putU64(feedback.rasterCycles);
    w.putDouble(feedback.textureHitRatio);
    w.putU64(feedback.tileDramAccesses.size());
    for (const std::uint64_t v : feedback.tileDramAccesses)
        w.putU64(v);
    w.putU64(feedback.tileInstructions.size());
    for (const std::uint64_t v : feedback.tileInstructions)
        w.putU64(v);
    w.putU64(geometry->verticesProcessed.value());
    w.putU64(geometry->drawsProcessed.value());
    w.putU64(geometry->binEntriesWritten.value());
    w.putU64(geometry->primRecordsWritten.value());
    w.endSection();

    // The flat counter tree last: names pin the machine's wiring, so a
    // restore onto a differently shaped build fails loudly here even
    // if every structural check above happened to pass.
    w.beginSection(SnapSection::Counters);
    const std::map<std::string, std::uint64_t> values =
        statGroup.values();
    w.putU64(values.size());
    for (const auto &[name, value] : values) {
        w.putString(name);
        w.putU64(value);
    }
    w.endSection();
}

Status
Gpu::loadState(SnapshotReader &r)
{
    r.openSection(SnapSection::Engine);
    queue.importState(r);
    r.closeSection();

    r.openSection(SnapSection::Caches);
    l2->loadState(r);
    vertexCache->loadState(r);
    tileCache->loadState(r);
    if (r.check(r.takeU64() == texL1s.size(),
                "texture-L1 count mismatches the configuration")) {
        for (auto &tex : texL1s)
            tex->loadState(r);
    }
    r.closeSection();

    r.openSection(SnapSection::Dram);
    dramModel->loadState(r);
    r.closeSection();

    r.openSection(SnapSection::Replication);
    replTracker.importState(r);
    r.closeSection();

    r.openSection(SnapSection::Scheduler);
    tileSched->importState(r);
    r.closeSection();

    r.openSection(SnapSection::RasterUnits);
    if (r.check(r.takeU64() == rus.size(),
                "Raster Unit count mismatches the configuration")) {
        for (auto &unit : rus)
            unit->loadState(r);
    }
    r.closeSection();

    r.openSection(SnapSection::GpuCore);
    framesRendered = r.takeU32();
    if (r.check(r.takeU64() == tileSignatures.size(),
                "tile-signature count mismatches the grid")) {
        for (std::uint64_t &sig : tileSignatures)
            sig = r.takeU64();
    }
    reSigValid = r.takeBool();
    if (r.check(r.takeU64() == reWeakSig.size(),
                "RE weak-signature count mismatches the configuration")) {
        for (std::uint64_t &sig : reWeakSig)
            sig = r.takeU64();
    }
    if (r.check(r.takeU64() == reStrongSig.size(),
                "RE strong-signature count mismatches the "
                "configuration")) {
        for (std::uint64_t &sig : reStrongSig)
            sig = r.takeU64();
    }
    feedback.valid = r.takeBool();
    feedback.rasterCycles = r.takeU64();
    feedback.textureHitRatio = r.takeDouble();
    const std::uint64_t n_dram = r.takeU64();
    if (r.check(n_dram == 0 || n_dram == grid.tileCount(),
                "feedback DRAM vector length mismatches the grid")) {
        feedback.tileDramAccesses.assign(n_dram, 0);
        for (std::uint64_t &v : feedback.tileDramAccesses)
            v = r.takeU64();
    }
    const std::uint64_t n_instr = r.takeU64();
    if (r.check(n_instr == 0 || n_instr == grid.tileCount(),
                "feedback instruction vector length mismatches the "
                "grid")) {
        feedback.tileInstructions.assign(n_instr, 0);
        for (std::uint64_t &v : feedback.tileInstructions)
            v = r.takeU64();
    }
    geometry->verticesProcessed.set(r.takeU64());
    geometry->drawsProcessed.set(r.takeU64());
    geometry->binEntriesWritten.set(r.takeU64());
    geometry->primRecordsWritten.set(r.takeU64());
    r.closeSection();

    r.openSection(SnapSection::Counters);
    std::map<std::string, std::uint64_t> values;
    const std::uint64_t n_counters = r.takeU64();
    for (std::uint64_t i = 0; i < n_counters && r.ok(); ++i) {
        std::string name = r.takeString();
        const std::uint64_t value = r.takeU64();
        values.emplace(std::move(name), value);
    }
    r.closeSection();
    if (r.ok()) {
        if (Status st = statGroup.restoreValues(values); !st.isOk())
            return st;
    }
    return r.status();
}

Status
Gpu::checkFrameInvariants(const FrameStats &fs)
{
    invariantChecker.clear();

    // Cache-counter conservation holds cumulatively: both sides of the
    // law are bumped synchronously on every non-retried access, and the
    // frame boundary is quiescent (the event queue drained).
    invariantChecker.checkCacheConservation(*l2);
    invariantChecker.checkCacheConservation(*vertexCache);
    invariantChecker.checkCacheConservation(*tileCache);
    for (const auto &tex : texL1s)
        invariantChecker.checkCacheConservation(*tex);

    invariantChecker.checkDramAttribution(fs.tileDram,
                                          frameAttributedDram);
    invariantChecker.checkTileCoverage(tileFlushCount, tileSkipCount);
    invariantChecker.checkSchedulerDrained(tileSched->tilesRemaining());
    for (std::size_t i = 0; i < fs.ruPhases.size(); ++i) {
        invariantChecker.checkPhasePartition(i, fs.ruPhases[i],
                                             fs.totalCycles);
    }
    invariantChecker.checkEnergyBreakdown(fs.energy);

    Status st = invariantChecker.status();
    if (st.isOk())
        return st;
    return Status::error(st.code(), "frame ", fs.frameIndex, ": ",
                         st.message());
}

} // namespace libra
