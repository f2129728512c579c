#include "gpu/raster/shader_core.hh"

#include <algorithm>

#include "check/snapshot.hh"
#include "common/log.hh"

namespace libra
{

ShaderCore::ShaderCore(EventQueue &eq, std::uint32_t warp_slots,
                       Cache &texture_l1, const std::string &name)
    : queue(eq), warpSlots(warp_slots), texL1(texture_l1)
{
    libra_assert(warp_slots > 0, name, ": core needs warp slots");
    flights.reserve(warp_slots);
    freeFlights.reserve(warp_slots);
}

Tick
ShaderCore::reserveIssue(Tick earliest, Tick cycles)
{
    const Tick start = std::max(earliest, issueReadyAt);
    issueReadyAt = start + cycles;
    issueBusy += cycles;
    return issueReadyAt;
}

void
ShaderCore::dispatch(const WarpTask &task, WarpRetireCallback on_retire)
{
    libra_assert(hasFreeSlot(), "dispatch to a full core");
    ++residentWarps;
    ++warpsExecuted;

    const Tick now = queue.now();

    // Main ALU block: the warp single-issues one instruction per cycle,
    // arbitrating the issue port with the other resident warps.
    const Tick alu_done = reserveIssue(now, std::max<Tick>(1, task.aluOps));

    Flight *flight = nullptr;
    if (freeFlights.empty()) {
        // Every constructed flight is resident, so there are fewer
        // than warpSlots: this never reallocates (flights are pinned).
        libra_assert(flights.size() < flights.capacity(),
                     "warp flight pool would move");
        flight = &flights.emplace_back();
    } else {
        flight = freeFlights.back();
        freeFlights.pop_back();
    }
    flight->task = task; // copy-assigning reuses texLines' buffer
    flight->onRetire = std::move(on_retire);
    flight->outstanding = 0;
    flight->issueTick = 0;
    flight->lastData = 0;
    flight->latencySum = 0;

    if (flight->task.texLines.empty()) {
        // Pure-ALU warp: no texture phase.
        queue.schedule(alu_done, [this, flight, alu_done] {
            finishWarp(flight, alu_done);
        });
        return;
    }

    // Texture phase: issue every sample when the ALU block completes,
    // then block until the last one returns.
    flight->outstanding = flight->task.texLines.size();
    queue.schedule(alu_done,
                   [this, flight] { issueTexPhase(flight); });
}

void
ShaderCore::issueTexPhase(Flight *flight)
{
    flight->issueTick = queue.now();
    for (const Addr line : flight->task.texLines) {
        texL1.access(MemReq{
            line, 64, false, TrafficClass::Texture, flight->task.tile,
            [this, flight](Tick when) { onTexData(flight, when); }});
    }
    // The warp just blocked on its texture data; let the RU's phase
    // attribution notice (it may have been the last one issuing).
    if (onStateChange)
        onStateChange();
}

void
ShaderCore::onTexData(Flight *flight, Tick when)
{
    flight->latencySum += when - flight->issueTick;
    flight->lastData = std::max(flight->lastData, when);
    if (--flight->outstanding == 0)
        finishWarp(flight, flight->lastData);
}

void
ShaderCore::finishWarp(Flight *flight, Tick data_ready)
{
    // Tail block (color computation/export) re-arbitrates issue.
    const Tick done = reserveIssue(data_ready, tailOps);
    texRequests += flight->task.texLines.size();
    texLatencySum += flight->latencySum;

    WarpRetireInfo &info = flight->info;
    info.tile = flight->task.tile;
    info.shadedAt = done;
    info.instructions = flight->task.instructions;
    info.texRequests = flight->task.texLines.size();
    info.texLatencySum = flight->latencySum;
    info.quadCount = flight->task.quadCount;
    info.fragments = flight->task.fragments;
    info.blend = flight->task.blend;

    queue.schedule(done, [this, flight] { retireWarp(flight); });
    // Data returned and the tail block re-occupied the issue port:
    // the core transitioned back from waiting to shading.
    if (onStateChange)
        onStateChange();
}

void
ShaderCore::retireWarp(Flight *flight)
{
    libra_assert(residentWarps > 0, "slot underflow");
    --residentWarps;
    // The callback may dispatch a new warp into this core, which may
    // take this very Flight: move the callback and its info out first.
    WarpRetireCallback on_retire = std::move(flight->onRetire);
    const WarpRetireInfo info = flight->info;
    freeFlights.push_back(flight);
    on_retire(info);
}

void
ShaderCore::saveState(SnapshotWriter &w) const
{
    libra_assert(residentWarps == 0,
                 "shader-core snapshot with resident warps");
    w.putU64(issueReadyAt);
    w.putU64(warpsExecuted.value());
    w.putU64(issueBusy.value());
    w.putU64(texRequests.value());
    w.putU64(texLatencySum.value());
}

void
ShaderCore::loadState(SnapshotReader &r)
{
    issueReadyAt = r.takeU64();
    warpsExecuted.set(r.takeU64());
    issueBusy.set(r.takeU64());
    texRequests.set(r.takeU64());
    texLatencySum.set(r.takeU64());
}

} // namespace libra
