#include "cache/cache.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>

#include "check/snapshot.hh"
#include "common/log.hh"

namespace libra
{

Cache::Cache(EventQueue &eq, const CacheConfig &cfg, MemSink &next_level)
    : queue(eq), config(cfg), next(next_level), mshrIndex(cfg.mshrs),
      statGroup(cfg.name)
{
    libra_assert(config.lineBytes > 0 && config.ways > 0, "bad cache cfg");
    libra_assert(config.sizeBytes % (config.lineBytes * config.ways) == 0,
                 config.name, ": size not divisible into sets");
    numSets = config.sizeBytes / (config.lineBytes * config.ways);
    libra_assert(numSets > 0, config.name, ": zero sets");
    // GpuConfig::validate() and the config fuzzer guarantee both, so
    // the set index is a shift and a mask.
    libra_assert(std::has_single_bit(config.lineBytes)
                     && std::has_single_bit(numSets),
                 config.name, ": line size and set count must be powers "
                 "of two");
    lineShift = static_cast<std::uint32_t>(
        std::countr_zero(config.lineBytes));
    lines.resize(static_cast<std::size_t>(numSets) * config.ways);

    mshrSlots.resize(config.mshrs);
    mshrCls.resize(config.mshrs, TrafficClass::Texture);
    mshrTag.resize(config.mshrs, invalidId);
    for (std::size_t i = 0; i < config.mshrs; ++i)
        freeMshrs.push_back(config.mshrs - 1 - i);

    statGroup.add("hits", &hits);
    statGroup.add("misses", &misses);
    statGroup.add("mshr_coalesced", &mshrCoalesced);
    statGroup.add("mshr_stalls", &mshrStalls);
    statGroup.add("writebacks", &writebacks);
    statGroup.add("read_accesses", &readAccesses);
    statGroup.add("write_accesses", &writeAccesses);
    statGroup.add("invalidated_fills", &invalidatedFills);
}

std::size_t
Cache::setIndex(Addr line_addr) const
{
    return static_cast<std::size_t>((line_addr >> lineShift)
                                    & (numSets - 1));
}

int
Cache::findLine(Addr line_addr)
{
    const std::size_t set = setIndex(line_addr);
    for (std::uint32_t w = 0; w < config.ways; ++w) {
        Line &line = lines[set * config.ways + w];
        if (line.valid && line.tag == line_addr)
            return static_cast<int>(w);
    }
    return -1;
}

std::uint32_t
Cache::victimWay(std::size_t set)
{
    std::uint32_t victim = 0;
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (std::uint32_t w = 0; w < config.ways; ++w) {
        const Line &line = lines[set * config.ways + w];
        if (!line.valid)
            return w;
        if (line.lruStamp < oldest) {
            oldest = line.lruStamp;
            victim = w;
        }
    }
    return victim;
}

void
Cache::installLine(Addr line_addr, bool dirty)
{
    const std::size_t set = setIndex(line_addr);
    const std::uint32_t way = victimWay(set);
    Line &line = lines[set * config.ways + way];
    if (line.valid) {
        if (line.dirty) {
            // Dirty lines only arise from parameter-buffer writes (the
            // frame buffer streams directly to DRAM), so attribute
            // write-backs to that class.
            ++writebacks;
            next.access(MemReq{line.tag, config.lineBytes, true,
                               TrafficClass::ParameterBuffer, invalidId,
                               nullptr});
        }
        if (replication)
            replication->recordEvict(line.tag);
    }
    line.valid = true;
    line.dirty = dirty;
    line.tag = line_addr;
    line.lruStamp = ++lruClock;
    if (replication)
        replication->recordInstall(line_addr);
}

Tick
Cache::arbitratePort()
{
    Tick start = queue.now();
    if (portTick < start) {
        portTick = start;
        portCount = 0;
    }
    while (portCount >= config.portsPerCycle) {
        ++portTick;
        portCount = 0;
    }
    ++portCount;
    return portTick;
}

void
Cache::issueFill(std::size_t index)
{
    const Addr line_addr = mshrSlots[index].lineAddr;
    next.access(MemReq{line_addr, config.lineBytes, false,
                       mshrCls[index], mshrTag[index],
                       [this, line_addr](Tick when) {
                           handleFill(line_addr, when);
                       }});
}

void
Cache::handleFill(Addr line_addr, Tick when)
{
    const std::uint32_t *found = mshrIndex.find(line_addr);
    libra_assert(found != nullptr, config.name,
                 ": fill for unknown MSHR line");
    const std::size_t index = *found;
    Mshr &slot = mshrSlots[index];

    // A fill that crossed an invalidateAll() carries pre-invalidate
    // data: complete its waiters (the timing is real) but never install
    // the stale line.
    bool discard = slot.discardFill;
    if (testDropFillEvery != 0 && ++fillSeq % testDropFillEvery == 0)
        discard = true;
    if (discard)
        ++invalidatedFills;
    else
        installLine(line_addr, slot.anyWrite);

    const Tick done = when + config.hitLatency;
    for (auto &cb : slot.waiters) {
        if (cb)
            queue.schedule(done, [cb = std::move(cb), done]() mutable {
                cb(done);
            });
    }
    slot.waiters.clear();
    slot.anyWrite = false;
    slot.discardFill = false;
    mshrIndex.erase(line_addr);
    freeMshrs.push_back(index);

    // Retry stalled requests while MSHRs are available. A retried
    // request can only re-stall when the free list empties, which ends
    // the loop first, so each iteration strictly shrinks the queue.
    while (!freeMshrs.empty() && !stalledReqs.empty()) {
        MemReq req = std::move(stalledReqs.front());
        stalledReqs.pop_front();
        accessImpl(req, true);
    }
}

void
Cache::access(MemReq req)
{
    accessImpl(req, false);
}

void
Cache::accessImpl(MemReq &req, bool is_retry)
{
    // Split multi-line requests into independent line accesses; the
    // caller's callback fires when the last line completes.
    const Addr first_line = lineAddr(req.addr);
    const Addr last_line = lineAddr(req.addr + std::max(req.size, 1u) - 1);
    if (first_line != last_line) {
        const std::size_t count =
            static_cast<std::size_t>((last_line - first_line)
                                     / config.lineBytes) + 1;
        auto join = std::make_shared<SplitJoin>(
            count, std::move(req.onComplete));
        for (Addr line = first_line; line <= last_line;
             line += config.lineBytes) {
            MemReq part;
            part.addr = line;
            part.size = config.lineBytes;
            part.write = req.write;
            part.cls = req.cls;
            part.tileTag = req.tileTag;
            part.onComplete = splitJoinPart(join);
            accessImpl(part, is_retry);
        }
        return;
    }

    if (!is_retry) {
        if (req.write)
            ++writeAccesses;
        else
            ++readAccesses;
    }

    const Addr line_addr = first_line;
    const Tick start = arbitratePort();

    if (config.alwaysHit) {
        // Ideal-memory methodology (Fig. 6a): every access behaves as an
        // L1 hit; no traffic propagates downstream.
        if (!testDropHitAccounting)
            ++hits;
        if (req.onComplete) {
            const Tick done = start + config.hitLatency;
            queue.schedule(done, [cb = std::move(req.onComplete),
                                  done]() mutable { cb(done); });
        }
        return;
    }

    const int way = findLine(line_addr);
    if (way >= 0) {
        // Hit. Retried requests were already counted (as the miss they
        // originally were).
        if (!is_retry && !testDropHitAccounting)
            ++hits;
        Line &line = lines[setIndex(line_addr) * config.ways
                           + static_cast<std::uint32_t>(way)];
        line.lruStamp = ++lruClock;
        if (req.write)
            line.dirty = true;
        if (req.onComplete) {
            const Tick done = start + config.hitLatency;
            queue.schedule(done, [cb = std::move(req.onComplete),
                                  done]() mutable { cb(done); });
        }
        return;
    }

    // Miss while a fill for the same line is outstanding: coalesce.
    if (const std::uint32_t *in_flight = mshrIndex.find(line_addr)) {
        if (!is_retry)
            ++mshrCoalesced;
        Mshr &slot = mshrSlots[*in_flight];
        slot.anyWrite |= req.write;
        slot.waiters.push_back(std::move(req.onComplete));
        return;
    }

    if (!is_retry)
        ++misses;

    // Streaming writes bypass allocation when configured to.
    if (req.write && !config.writeAllocate) {
        next.access(std::move(req));
        return;
    }

    if (freeMshrs.empty()) {
        if (!is_retry)
            ++mshrStalls;
        stalledReqs.push_back(std::move(req));
        return;
    }

    const std::size_t index = freeMshrs.back();
    freeMshrs.pop_back();
    Mshr &slot = mshrSlots[index];
    slot.lineAddr = line_addr;
    slot.anyWrite = req.write;
    slot.discardFill = false;
    slot.waiters.clear();
    slot.waiters.push_back(std::move(req.onComplete));
    mshrIndex.insert(line_addr, static_cast<std::uint32_t>(index));
    mshrCls[index] = req.cls;
    mshrTag[index] = req.tileTag;
    issueFill(index);
}

void
Cache::invalidateAll()
{
    for (auto &line : lines) {
        if (line.valid && line.dirty) {
            ++writebacks;
            next.access(MemReq{line.tag, config.lineBytes, true,
                               TrafficClass::ParameterBuffer, invalidId,
                               nullptr});
        }
        if (line.valid && replication)
            replication->recordEvict(line.tag);
        line.valid = false;
        line.dirty = false;
    }
    // In-flight fills were requested before the invalidate; installing
    // them afterwards would resurrect stale lines. Let them complete
    // (waiters keep their timing) but drop the install.
    mshrIndex.forEach([this](Addr, std::uint32_t index) {
        mshrSlots[index].discardFill = true;
    });
}

double
Cache::hitRatio() const
{
    const std::uint64_t total = hits.value() + misses.value();
    return total == 0 ? 1.0 : static_cast<double>(hits.value()) / total;
}

void
Cache::saveState(SnapshotWriter &w) const
{
    libra_assert(mshrIndex.size() == 0 && stalledReqs.empty(),
                 "cache snapshot with in-flight misses: ", config.name);
    w.putU64(lines.size());
    for (const Line &line : lines) {
        w.putBool(line.valid);
        w.putBool(line.dirty);
        w.putU64(line.tag);
        w.putU64(line.lruStamp);
    }
    w.putU64(lruClock);
    w.putU64(portTick);
    w.putU32(portCount);
    w.putU64(fillSeq);
}

void
Cache::loadState(SnapshotReader &r)
{
    const std::uint64_t count = r.takeU64();
    if (!r.check(count == lines.size(),
                 "cache line count mismatches the configuration"))
        return;
    for (Line &line : lines) {
        line.valid = r.takeBool();
        line.dirty = r.takeBool();
        line.tag = r.takeU64();
        line.lruStamp = r.takeU64();
    }
    lruClock = r.takeU64();
    portTick = r.takeU64();
    portCount = r.takeU32();
    fillSeq = r.takeU64();
}

} // namespace libra
