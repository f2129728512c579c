#include "gpu/raster/raster_unit.hh"

#include <algorithm>
#include <bit>
#include <memory>
#include <sstream>

#include "check/snapshot.hh"
#include "common/log.hh"
#include "common/rng.hh"

namespace libra
{

namespace
{

/** Pop an emptied buffer from @p pool (a fresh one when none). */
template <typename T>
std::vector<T>
takeBuffer(std::vector<std::vector<T>> &pool)
{
    if (pool.empty())
        return {};
    std::vector<T> buf = std::move(pool.back());
    pool.pop_back();
    buf.clear();
    return buf;
}

} // namespace

const char *
ruPhaseName(RuPhase phase)
{
    switch (phase) {
      case RuPhase::Rasterize: return "rasterize";
      case RuPhase::Shade: return "shade";
      case RuPhase::TextureWait: return "texture_wait";
      case RuPhase::DramWait: return "dram_wait";
      case RuPhase::Blend: return "blend";
      case RuPhase::Idle: return "idle";
    }
    return "?";
}

void
RuPhaseTracker::registerStats(StatGroup &g)
{
    for (std::size_t i = 0; i < kNumRuPhases; ++i) {
        g.add(std::string("phase_")
                  + ruPhaseName(static_cast<RuPhase>(i)),
              &counters[i]);
    }
}

RasterUnit::RasterUnit(EventQueue &eq, const RasterUnitConfig &cfg,
                       const TileGrid &tile_grid,
                       MemSink &frame_buffer_sink,
                       std::vector<Cache *> texture_l1s)
    : queue(eq), config(cfg), grid(tile_grid), fbSink(frame_buffer_sink),
      statGroup("ru" + std::to_string(cfg.index))
{
    libra_assert(texture_l1s.size() == cfg.cores,
                 "need one texture L1 per core");
    for (std::uint32_t i = 0; i < cfg.cores; ++i) {
        std::ostringstream name;
        name << "ru" << cfg.index << ".core" << i;
        cores.push_back(std::make_unique<ShaderCore>(
            eq, cfg.warpsPerCore, *texture_l1s[i], name.str()));
        cores.back()->onStateChange = [this] { updatePhase(); };
    }
    maxPendingWarps = cfg.pendingWarpsPerCore * cfg.cores;
    phaseTracker.registerStats(statGroup);

    statGroup.add("prims_rasterized", &primsRasterized);
    statGroup.add("quads_produced", &quadsProduced);
    statGroup.add("warps_launched", &warpsLaunched);
    statGroup.add("tiles_rendered", &tilesRendered);
    statGroup.add("flush_bytes", &flushBytes);
    statGroup.add("tex_latency_sum", &texLatencySum);
    statGroup.add("tex_requests", &texRequests);
    statGroup.add("fragments_shaded", &fragmentsShaded);
    statGroup.add("flushes_elided", &flushesElided);
}

void
RasterUnit::beginFrame(const BinnedFrame &binned, const TexturePool &pool)
{
    libra_assert(idle(), "beginFrame on a busy Raster Unit");
    frame = &binned;
    texPool = &pool;
    setupCache.clear();
    setupCache.resize(binned.tris.size());
    updatePhase();
}

void
RasterUnit::push(const RasterWork &work)
{
    libra_assert(canPush(), "push to a full FIFO");
    fifo.push_back(work);
    tryAdvance();
}

bool
RasterUnit::idle() const
{
    return !frag && !ahead && fifo.empty() && pendingWarps.empty();
}

RuPhase
RasterUnit::phaseNow(Tick now) const
{
    // Priority attribution (deepest active stage wins): a core that is
    // actively issuing hides the front-end and the memory system;
    // waits are only charged when every resident warp is blocked.
    bool any_resident = false;
    bool any_issuing = false;
    for (const auto &core : cores) {
        if (core->resident() == 0)
            continue;
        any_resident = true;
        if (core->issueBusyUntil() > now) {
            any_issuing = true;
            break;
        }
    }
    if (any_issuing)
        return RuPhase::Shade;
    if (any_resident) {
        // Every resident warp is blocked on texture data. If any of
        // this unit's L1s has a fill outstanding the wait is on the
        // memory system below (L2/DRAM); otherwise the data is an
        // in-flight L1 hit.
        for (const auto &core : cores) {
            if (core->textureL1().outstandingMisses() > 0)
                return RuPhase::DramWait;
        }
        return RuPhase::TextureWait;
    }
    if ((frag || ahead) && now < frontReadyAt)
        return RuPhase::Rasterize;
    if (frag && frag->completing)
        return RuPhase::Blend; // waiting on blend commit / flush start
    if (now < flushReadyAt)
        return RuPhase::Blend; // flush DMA draining
    if (idle())
        return RuPhase::Idle;
    // Something is queued (FIFO entries, a tile awaiting its end
    // marker) but no modeled resource is occupied this tick: the
    // front-end owns whatever happens next.
    return RuPhase::Rasterize;
}

void
RasterUnit::updatePhase()
{
    const Tick now = queue.now();
    phaseTracker.transition(phaseNow(now), now);
}

void
RasterUnit::tryAdvance()
{
    if (inAdvance)
        return;
    inAdvance = true;

    while (true) {
        const Tick now = queue.now();
        if (now < frontReadyAt) {
            if (!advanceScheduled) {
                advanceScheduled = true;
                queue.schedule(frontReadyAt, [this] {
                    advanceScheduled = false;
                    tryAdvance();
                });
            }
            break;
        }
        if (fifo.empty())
            break;

        const RasterWork &head = fifo.front();
        if (head.kind == RasterWork::Kind::TileBegin && frag && ahead) {
            // No free tile context; resumed when the fragment-stage
            // tile completes.
            break;
        }
        if (head.kind == RasterWork::Kind::Prim
            && pendingWarps.size() >= maxPendingWarps) {
            // Warp backlog full; resumed by dispatchPending().
            break;
        }

        const RasterWork work = head;
        fifo.pop_front();
        processWork(work);
        if (onSpaceFreed)
            onSpaceFreed();
    }

    inAdvance = false;
    updatePhase();
}

void
RasterUnit::processWork(const RasterWork &work)
{
    const Tick now = queue.now();
    switch (work.kind) {
      case RasterWork::Kind::TileBegin: {
        auto ctx = std::make_unique<TileCtx>(config.tileSize,
                                             config.blendQuadsPerCycle);
        ctx->tile = work.tile;
        ctx->rect = grid.tileRect(work.tile);
        ctx->zbuf.beginTile(ctx->rect);
        ctx->blender.beginTile(ctx->rect);
        if (traceLane)
            traceLane->asyncBegin(traceTileName, work.tile, now);
        if (!frag)
            frag = std::move(ctx);
        else
            ahead = std::move(ctx);
        frontReadyAt = now + 1;
        break;
      }
      case RasterWork::Kind::Prim:
        rasterizePrim(work.primIndex);
        break;
      case RasterWork::Kind::TileEnd: {
        TileCtx *ctx = rasterCtx();
        libra_assert(ctx && ctx->tile == work.tile,
                     "TileEnd without a matching TileBegin");
        ctx->endSeen = true;
        frontReadyAt = now + 1;
        maybeCompleteTile();
        break;
      }
    }
}

void
RasterUnit::rasterizePrim(std::uint32_t prim_index)
{
    TileCtx *ctx = rasterCtx();
    libra_assert(ctx, "primitive outside any tile");
    libra_assert(frame && prim_index < frame->tris.size(),
                 "bad primitive index");
    const Triangle &tri = frame->tris[prim_index];
    const Texture &tex = texPool->get(tri.textureId);

    std::optional<TriangleSetup> &cached = setupCache[prim_index];
    if (!cached)
        cached.emplace(tri, tex);
    const TriangleSetup &setup = *cached;
    RasterOutput &out = rasterScratch;
    out.quads.clear();
    out.blocksScanned = 0;
    setup.rasterize(ctx->rect, out);
    ++primsRasterized;

    // Early-Z: opaque primitives write depth, blended ones only test.
    std::vector<Quad> &survivors = survivorScratch;
    survivors.clear();
    for (Quad &quad : out.quads) {
        if (ctx->zbuf.testQuad(quad, !tri.blend) != 0)
            survivors.push_back(quad);
    }
    quadsProduced += survivors.size();

    // Front-end occupancy: block scan rate plus Early-Z rate.
    const Tick raster_cycles = std::max<Tick>(
        1, out.blocksScanned / std::max(config.rasterQuadsPerCycle, 1u));
    const Tick z_cycles =
        out.quads.size() / std::max(config.earlyZQuadsPerCycle, 1u);
    frontReadyAt = queue.now() + raster_cycles + z_cycles;

    // Assemble surviving quads into warps (one primitive per warp,
    // uniform shader state).
    std::size_t i = 0;
    while (i < survivors.size()) {
        const std::size_t n =
            std::min<std::size_t>(config.warpQuads, survivors.size() - i);
        std::vector<Quad> group = takeBuffer(quadBuffers);
        group.assign(survivors.begin() + static_cast<std::ptrdiff_t>(i),
                     survivors.begin()
                         + static_cast<std::ptrdiff_t>(i + n));
        emitWarp(*ctx, tri, prim_index, std::move(group));
        i += n;
    }
}

namespace
{

/**
 * Snapshot of one tile flush in progress. Shared by the flush events so
 * each captures only {this, fin} — inside the inline capacity of
 * EventCallback/MemCallback.
 */
struct PendingFlush
{
    TileDoneInfo done;
    std::shared_ptr<std::vector<std::uint64_t>> color;
    Addr fbAddr = 0;
    std::uint32_t bytes = 0;
    TileId tile = 0;
};

} // namespace

std::uint64_t
primContentHash(const Triangle &tri)
{
    std::uint64_t h = tri.textureId;
    h = hashCombine(h, (static_cast<std::uint64_t>(tri.shaderAluOps)
                        << 2)
                           ^ (tri.blend ? 1 : 0)
                           ^ (tri.useMips ? 2 : 0));
    for (const auto &v : tri.v) {
        h = hashCombine(h, std::bit_cast<std::uint32_t>(v.pos.x));
        h = hashCombine(h, std::bit_cast<std::uint32_t>(v.pos.y));
        h = hashCombine(h, std::bit_cast<std::uint32_t>(v.pos.z));
        h = hashCombine(h, std::bit_cast<std::uint32_t>(v.uv.x));
        h = hashCombine(h, std::bit_cast<std::uint32_t>(v.uv.y));
    }
    return h;
}

void
RasterUnit::emitWarp(TileCtx &ctx, const Triangle &tri,
                     std::uint32_t prim_index, std::vector<Quad> quads)
{
    const Texture &tex = texPool->get(tri.textureId);

    WarpTask task;
    task.tile = ctx.tile;
    task.quadCount = static_cast<std::uint32_t>(quads.size());
    task.aluOps = tri.shaderAluOps;
    task.blend = tri.blend;
    task.texLines = takeBuffer(texLineBuffers);
    task.texLines.reserve(quads.size() * tri.texSamples);
    for (const Quad &quad : quads) {
        task.fragments += static_cast<std::uint32_t>(quad.coveredCount());
        for (std::uint8_t s = 0; s < tri.texSamples; ++s) {
            // Sample 0 reads the interpolated uv; additional samples
            // model secondary maps in another region of the sheet.
            const Vec2 uv = s == 0
                ? quad.uv
                : Vec2{quad.uv.x * 0.5f + 0.27f,
                       quad.uv.y * 0.5f + 0.61f};
            task.texLines.push_back(tex.lineAddr(uv.x, uv.y, quad.mip));
        }
    }
    task.instructions = static_cast<std::uint64_t>(task.aluOps)
        + task.texLines.size() + ShaderCore::tailOps;

    PendingWarp pending;
    pending.ctx = &ctx;
    pending.seq = ctx.nextSeq++;
    pending.primId = prim_index;
    pending.primSig = config.transactionElimination
        ? primContentHash(tri)
        : 0;
    pending.task = std::move(task);
    pending.quads = std::move(quads);
    ++ctx.warps;
    pendingWarps.push_back(std::move(pending));
    dispatchPending();
}

void
RasterUnit::dispatchPending()
{
    bool dispatched = false;
    while (!pendingWarps.empty()) {
        PendingWarp &head = pendingWarps.front();
        if (head.ctx != frag.get())
            break; // fragment-stage barrier (paper §III-A)

        // Prefer a screen-space-banded core assignment: quads from the
        // same 4-pixel row band go to the same core, so spatially
        // adjacent warps (which share texture lines) share an L1. Real
        // GPUs use static screen-space interleaving for the same
        // reason. Fall back to any free core to keep the load balanced.
        ShaderCore *target = nullptr;
        if (!head.quads.empty()) {
            const std::uint32_t band = head.quads.front().py / 4;
            ShaderCore *preferred =
                cores[band % cores.size()].get();
            if (preferred->hasFreeSlot())
                target = preferred;
        }
        if (!target) {
            for (std::uint32_t i = 0; i < cores.size(); ++i) {
                ShaderCore *candidate =
                    cores[(nextCore + i) % cores.size()].get();
                if (candidate->hasFreeSlot()) {
                    target = candidate;
                    nextCore = (nextCore + i + 1)
                        % static_cast<std::uint32_t>(cores.size());
                    break;
                }
            }
        }
        if (!target)
            break; // resumed on warp retire

        PendingWarp pending = std::move(pendingWarps.front());
        pendingWarps.pop_front();
        ++warpsLaunched;
        TileCtx *ctx = pending.ctx;
        const std::uint32_t seq = pending.seq;
        const std::uint32_t prim_id = pending.primId;
        const std::uint64_t prim_sig = pending.primSig;
        // The quad vector rides inside the retire callback's inline
        // capture (the whole capture is 56 of WarpRetireCallback's 64
        // bytes) — no shared_ptr block per warp. The core copies the
        // texture lines, so their buffer goes straight back to the pool.
        target->dispatch(
            pending.task,
            [this, ctx, seq, prim_id, prim_sig,
             quads = std::move(pending.quads)](
                const WarpRetireInfo &info) mutable {
                onWarpRetired(ctx, seq, prim_id, prim_sig,
                              std::move(quads), info);
            });
        texLineBuffers.push_back(std::move(pending.task.texLines));
        dispatched = true;
    }
    if (dispatched)
        tryAdvance(); // raster front may have been stalled on backlog
    updatePhase();
}

void
RasterUnit::onWarpRetired(TileCtx *ctx, std::uint32_t seq,
                          std::uint32_t prim_id, std::uint64_t prim_sig,
                          std::vector<Quad> quads,
                          const WarpRetireInfo &info)
{
    libra_assert(frag && ctx == frag.get(),
                 "warp retired for a non-fragment-stage tile");
    texLatencySum += info.texLatencySum;
    texRequests += info.texRequests;
    fragmentsShaded += info.fragments;

    libra_assert(seq >= ctx->nextCommit, "warp ", seq,
                 " retired after its blend commit");
    const std::size_t slot = seq - ctx->nextCommit;
    if (slot >= ctx->retired.size())
        ctx->retired.resize(slot + 1);
    libra_assert(!ctx->retired[slot], "warp ", seq, " retired twice");
    ctx->retired[slot].emplace(
        TileCtx::RetiredWarp{info, std::move(quads), prim_id, prim_sig});
    commitReadyWarps(*ctx);
    dispatchPending();
    maybeCompleteTile();
}

void
RasterUnit::commitReadyWarps(TileCtx &ctx)
{
    // Blending commits strictly in warp-assembly (program) order, as a
    // real ROP reorder queue does — overlapping primitives must blend
    // in submission order for the output to be schedule-independent.
    while (!ctx.retired.empty() && ctx.retired.front()) {
        TileCtx::RetiredWarp &rw = *ctx.retired.front();
        const Tick ready = std::max(queue.now(), rw.info.shadedAt);
        const Tick blend_done =
            ctx.blender.acceptQuads(ready, rw.info.quadCount);
        ctx.lastBlendDone = std::max(ctx.lastBlendDone, blend_done);
        ctx.instructions += rw.info.instructions;
        ctx.fragments += rw.info.fragments;
        if (config.transactionElimination) {
            // Order-sensitive content hash over frame-independent
            // primitive signatures: identical primitive streams with
            // identical coverage produce identical tile contents.
            ctx.signature = hashCombine(ctx.signature, rw.primSig);
            for (const Quad &quad : rw.quads) {
                ctx.signature = hashCombine(
                    ctx.signature,
                    (static_cast<std::uint64_t>(quad.px) << 17)
                        ^ (static_cast<std::uint64_t>(quad.py) << 2)
                        ^ quad.mask);
            }
        }
        if (config.captureImage) {
            for (const Quad &quad : rw.quads)
                ctx.blender.blendQuad(quad, rw.primId);
        }
        quadBuffers.push_back(std::move(rw.quads));
        ctx.retired.pop_front();
        ++ctx.nextCommit;
    }
}

void
RasterUnit::maybeCompleteTile()
{
    TileCtx *ctx = frag.get();
    if (!ctx || ctx->completing || !ctx->endSeen
        || ctx->nextCommit != ctx->nextSeq) {
        return;
    }
    // All warps of the fragment-stage tile have committed.
    ctx->completing = true;
    const Tick done = std::max(queue.now(), ctx->lastBlendDone);
    queue.schedule(done, [this] { startFlush(); });
    updatePhase();
}

void
RasterUnit::startFlush()
{
    libra_assert(frag && frag->completing, "flush without a ready tile");

    // Snapshot everything the flush and the done-callback need, then
    // free the Fragment stage for the run-ahead tile (double-buffered
    // color buffer).
    auto ctx = std::move(frag);
    frag = std::move(ahead);

    const Tick now = queue.now();
    const IRect rect = ctx->rect;
    const std::uint32_t bytes = static_cast<std::uint32_t>(
        static_cast<double>(rect.width() * rect.height() * 4)
        * std::clamp(config.fbCompressionRatio, 0.05, 1.0));
    const TileId tile = ctx->tile;

    // Transaction elimination: when enabled and the content signature
    // matches the previous frame's, the frame buffer already holds
    // these bytes — skip the write entirely.
    const bool elide = config.transactionElimination && flushNeeded
        && !flushNeeded(tile, ctx->signature);

    // DMA engine occupancy: one engine per RU, serialized flushes.
    const Tick start = std::max(now, flushReadyAt);
    const std::uint32_t lines = (bytes + 63) / 64;
    flushReadyAt = start
        + lines / std::max(config.flushLinesPerCycle, 1u);

    flushBytes += elide ? 0 : bytes;
    ++tilesRendered;

    auto fin = std::make_shared<PendingFlush>();
    fin->color = config.captureImage
        ? std::make_shared<std::vector<std::uint64_t>>(
              ctx->blender.colorBuffer())
        : nullptr;
    fin->done.tile = tile;
    fin->done.instructions = ctx->instructions;
    fin->done.warps = ctx->warps;
    fin->done.fragments = ctx->fragments;
    fin->done.signature = ctx->signature;
    fin->done.flushElided = elide;
    fin->done.rect = rect;
    fin->bytes = bytes;
    fin->tile = tile;
    fin->fbAddr = addr_map::frameBufferBase
        + static_cast<Addr>(tile) * config.tileSize * config.tileSize * 4;

    if (elide) {
        ++flushesElided;
        queue.schedule(start, [this, fin] {
            TileDoneInfo info = fin->done;
            info.flushedAt = queue.now();
            info.colorBuffer = fin->color ? fin->color.get() : nullptr;
            if (traceLane)
                traceLane->asyncEnd(traceTileName, fin->tile,
                                    info.flushedAt);
            if (onTileDone)
                onTileDone(info);
            updatePhase();
        });
    } else {
        queue.schedule(start, [this, fin] {
            fbSink.access(MemReq{
                fin->fbAddr, fin->bytes, true, TrafficClass::FrameBuffer,
                fin->tile, [this, fin](Tick when) {
                    TileDoneInfo info = fin->done;
                    info.flushedAt = when;
                    info.colorBuffer =
                        fin->color ? fin->color.get() : nullptr;
                    if (traceLane)
                        traceLane->asyncEnd(traceTileName, fin->tile, when);
                    if (onTileDone)
                        onTileDone(info);
                    updatePhase();
                }});
        });
    }

    // The Fragment stage is free: dispatch the run-ahead tile's warps
    // and wake the raster front (it may be stalled on a TileBegin).
    dispatchPending();
    maybeCompleteTile(); // the promoted tile may already be finished
    tryAdvance();
}

void
RasterUnit::saveState(SnapshotWriter &w) const
{
    libra_assert(idle() && !advanceScheduled && !inAdvance,
                 "raster-unit snapshot while not idle");
    w.putU32(nextCore);
    w.putU64(frontReadyAt);
    w.putU64(flushReadyAt);
    w.putU8(static_cast<std::uint8_t>(phaseTracker.current()));
    w.putU64(phaseTracker.lastTransition());
    w.putU64(cores.size());
    for (const auto &core : cores)
        core->saveState(w);
}

void
RasterUnit::loadState(SnapshotReader &r)
{
    nextCore = r.takeU32();
    frontReadyAt = r.takeU64();
    flushReadyAt = r.takeU64();
    const std::uint8_t phase = r.takeU8();
    const Tick phase_edge = r.takeU64();
    if (!r.check(phase < kNumRuPhases, "RU phase out of range")
        || !r.check(nextCore < cores.size() || cores.empty(),
                    "RU dispatch rotation out of range"))
        return;
    phaseTracker.restore(static_cast<RuPhase>(phase), phase_edge);
    if (!r.check(r.takeU64() == cores.size(),
                 "RU core count mismatches the configuration"))
        return;
    for (const auto &core : cores)
        core->loadState(r);
}

} // namespace libra
