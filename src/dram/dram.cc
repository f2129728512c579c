#include "dram/dram.hh"

#include <algorithm>
#include <memory>

#include "check/snapshot.hh"
#include "common/log.hh"

namespace libra
{

Dram::Dram(EventQueue &eq, const DramConfig &cfg)
    : queue(eq), config(cfg)
{
    libra_assert(config.channels > 0 && config.banksPerChannel > 0,
                 "degenerate DRAM geometry");
    channelState.resize(config.channels);
    for (auto &channel : channelState)
        channel.banks.resize(config.banksPerChannel);

    statGroup.add("reads", &reads);
    statGroup.add("writes", &writes);
    statGroup.add("row_hits", &rowHits);
    statGroup.add("row_misses", &rowMisses);
    statGroup.add("row_conflicts", &rowConflicts);
    statGroup.add("total_read_latency", &totalReadLatency);
    statGroup.add("activates", &activates);
    statGroup.add("precharges", &precharges);
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(TrafficClass::NumClasses); ++c) {
        const auto cls = static_cast<TrafficClass>(c);
        statGroup.add(std::string("reads_") + trafficClassName(cls),
                      &classReads[c]);
        statGroup.add(std::string("writes_") + trafficClassName(cls),
                      &classWrites[c]);
    }
}

void
Dram::mapAddress(Addr addr, std::uint32_t &channel, std::uint32_t &bank,
                 std::uint64_t &row) const
{
    // Chunk offset | channel | bank | row, with chunks of
    // interleaveLines lines: sequential streams get several row hits in
    // a bank before the stream hops to the next channel/bank, as with
    // real controller address maps.
    const Addr line = addr / config.lineBytes;
    const std::uint32_t chunk_lines = std::max(1u, config.interleaveLines);
    const Addr chunk = line / chunk_lines;
    channel = static_cast<std::uint32_t>(chunk % config.channels);
    const Addr per_channel = chunk / config.channels;
    bank = static_cast<std::uint32_t>(per_channel % config.banksPerChannel);
    const Addr per_bank = per_channel / config.banksPerChannel;
    const Addr line_in_bank = per_bank * chunk_lines + line % chunk_lines;
    row = line_in_bank / (config.rowBytes / config.lineBytes);
}

std::size_t
Dram::pendingRequests() const
{
    std::size_t total = 0;
    for (const auto &channel : channelState)
        total += channel.readQ.size() + channel.writeQ.size();
    return total;
}

void
Dram::enqueueLine(Addr addr, bool write, TrafficClass cls,
                  std::uint32_t tile_tag, MemCallback cb)
{
    std::uint32_t channel_idx, bank;
    std::uint64_t row;
    mapAddress(addr, channel_idx, bank, row);

    std::uint32_t slot = 0;
    if (freeRequests.empty()) {
        slot = static_cast<std::uint32_t>(requests.size());
        requests.emplace_back();
    } else {
        slot = freeRequests.back();
        freeRequests.pop_back();
    }
    Request &req = requests[slot];
    req.addr = addr;
    req.write = write;
    req.cls = cls;
    req.tileTag = tile_tag;
    req.onComplete = std::move(cb);

    // The controller/PHY pipeline delays visibility to the scheduler.
    // Every request crosses the pipe in exactly ctrlLatency cycles and
    // same-tick events run in scheduling order, so the pipe drains
    // strictly FIFO — the event only needs to capture `this`, keeping
    // the request itself out of the (size-bounded) event capture.
    ctrlPipe.push_back(
        CtrlEntry{channel_idx, write, QueueEntry{bank, slot, row,
                                                 queue.now()}});
    queue.scheduleAfter(config.ctrlLatency, [this] {
        libra_assert(!ctrlPipe.empty(), "DRAM ctrl pipe underflow");
        const CtrlEntry ctrl = ctrlPipe.front();
        ctrlPipe.pop_front();
        Channel &ch = channelState[ctrl.channel];
        auto &q = ctrl.write ? ch.writeQ : ch.readQ;
        q.push_back(ctrl.entry);
        libra_assert(q.size() < 2'000'000, "runaway DRAM queue");
        serviceChannel(ctrl.channel);
    });
}

void
Dram::issue(Channel &channel, const QueueEntry &entry)
{
    Request &req = requests[entry.slot];
    Bank &bank = channel.banks[entry.bank];
    const Tick now = queue.now();
    libra_assert(bank.readyAt <= now, "issue to a busy bank");

    Tick cmd_start = now;
    if (testStallEvery != 0 && ++issueSeq % testStallEvery == 0)
        cmd_start += testStallTicks;
    bool row_hit = false;
    if (bank.rowOpen && bank.openRow == entry.row) {
        row_hit = true;
        ++rowHits;
    } else if (!bank.rowOpen) {
        ++rowMisses;
        ++activates;
        cmd_start += config.tRcd;
    } else {
        ++rowConflicts;
        ++precharges;
        ++activates;
        cmd_start += config.tRp + config.tRcd;
    }
    bank.rowOpen = true;
    bank.openRow = entry.row;

    // Column access, then the burst occupies the channel's data bus.
    const Tick data_ready = cmd_start + config.tCas;
    const Tick bus_start = std::max(data_ready, channel.busReadyAt);
    const Tick complete = bus_start + config.tBurst;
    channel.busReadyAt = complete;
    // Back-to-back column commands to the same bank are spaced by the
    // burst slot (tCCD ~ burst length); the bank does not wait for the
    // shared bus to drain, and writes add their recovery time.
    bank.readyAt = cmd_start + config.tBurst
        + (req.write ? config.tWr : 0);

    const std::size_t cls_idx = static_cast<std::size_t>(req.cls);
    if (req.write) {
        ++writes;
        ++classWrites[cls_idx];
    } else {
        ++reads;
        ++classReads[cls_idx];
        totalReadLatency += complete - entry.arrival;
    }

    if (observer) {
        observer(DramAccessInfo{req.addr, req.write, req.cls, req.tileTag,
                                entry.arrival, complete, row_hit});
    }
    if (req.onComplete) {
        queue.schedule(complete, [cb = std::move(req.onComplete),
                                  complete]() mutable { cb(complete); });
    }
    freeRequests.push_back(entry.slot);
}

int
Dram::pickRequest(const Channel &channel, const std::vector<QueueEntry> &q,
                  bool allow_starvation, Tick now, Tick &next_wake) const
{
    if (q.empty())
        return -1;
    const std::size_t window = std::min<std::size_t>(
        q.size(), std::max(1u, config.schedulerWindow));

    if (allow_starvation) {
        // Age cap: the oldest request preempts row-hit reordering.
        const QueueEntry &front = q.front();
        if (now >= front.arrival
            && now - front.arrival > config.starvationLimit) {
            const Bank &bank = channel.banks[front.bank];
            if (bank.readyAt <= now)
                return 0;
            next_wake = std::min(next_wake, bank.readyAt);
            return -1;
        }
    }
    // One pass instead of three (FR scan, FCFS scan, wake scan): hunt
    // for the first row hit on a ready bank while remembering the first
    // ready bank (the FCFS fallback) and the earliest bank-ready tick
    // (the wake time). The decision is unchanged: a row hit anywhere in
    // the window still beats the oldest ready request, and next_wake is
    // only committed when nothing can issue — exactly when every bank
    // in the window is busy, so the min covers the same set the old
    // third scan did.
    int first_ready = -1;
    Tick min_ready = maxTick;
    for (std::size_t i = 0; i < window; ++i) {
        const QueueEntry &req = q[i];
        const Bank &bank = channel.banks[req.bank];
        if (bank.readyAt <= now) {
            if (bank.rowOpen && bank.openRow == req.row)
                return static_cast<int>(i); // FR: row hit wins
            if (first_ready < 0)
                first_ready = static_cast<int>(i);
        } else if (bank.readyAt < min_ready) {
            min_ready = bank.readyAt;
        }
    }
    if (first_ready >= 0)
        return first_ready; // FCFS: oldest ready request
    next_wake = std::min(next_wake, min_ready);
    return -1;
}

void
Dram::serviceChannel(std::uint32_t channel_idx)
{
    Channel &channel = channelState[channel_idx];
    Tick next_wake = maxTick;

    while (!channel.readQ.empty() || !channel.writeQ.empty()) {
        const Tick now = queue.now();

        // Only issue when the data bus will be consumable soon; keeping
        // the decision point close to service time lets late arrivals
        // take part in the FR-FCFS choice.
        const Tick lookahead = config.tRp + config.tRcd + config.tCas;
        if (channel.busReadyAt > now + lookahead) {
            next_wake = std::min(next_wake,
                                 channel.busReadyAt - lookahead);
            break;
        }

        // Write-drain hysteresis.
        if (channel.writeQ.size() >= config.writeHighWatermark)
            channel.drainingWrites = true;
        else if (channel.writeQ.size() <= config.writeLowWatermark)
            channel.drainingWrites = false;

        std::vector<QueueEntry> *source = nullptr;
        int pick = -1;
        // A starved read preempts even a write drain: posted writes can
        // always wait a little longer, a blocked warp cannot.
        if (!channel.readQ.empty()) {
            const QueueEntry &front = channel.readQ.front();
            if (now >= front.arrival
                && now - front.arrival > config.starvationLimit
                && channel.banks[front.bank].readyAt <= now) {
                pick = 0;
                source = &channel.readQ;
            }
        }
        if (!source && channel.drainingWrites) {
            pick = pickRequest(channel, channel.writeQ, false, now,
                               next_wake);
            if (pick >= 0)
                source = &channel.writeQ;
        }
        if (!source) {
            pick = pickRequest(channel, channel.readQ, true, now,
                               next_wake);
            if (pick >= 0) {
                source = &channel.readQ;
            } else if (!channel.drainingWrites) {
                // Opportunistic write when no read can issue.
                pick = pickRequest(channel, channel.writeQ, false, now,
                                   next_wake);
                if (pick >= 0)
                    source = &channel.writeQ;
            }
        }
        if (!source)
            break;

        const QueueEntry entry = (*source)[static_cast<std::size_t>(pick)];
        source->erase(source->begin() + pick);
        issue(channel, entry);
    }

    armWakeup(channel_idx, next_wake);
}

void
Dram::armWakeup(std::uint32_t channel_idx, Tick when)
{
    if (when == maxTick)
        return;
    Channel &channel = channelState[channel_idx];
    if (channel.wakeupScheduled && channel.wakeupAt <= when)
        return;
    channel.wakeupScheduled = true;
    channel.wakeupAt = when;
    queue.schedule(when, [this, channel_idx, when] {
        Channel &ch = channelState[channel_idx];
        if (ch.wakeupAt == when) {
            ch.wakeupScheduled = false;
            ch.wakeupAt = maxTick;
        }
        serviceChannel(channel_idx);
    });
}

void
Dram::access(MemReq req)
{
    const Addr first_line = req.addr / config.lineBytes;
    const Addr last_line = (req.addr + std::max(req.size, 1u) - 1)
        / config.lineBytes;
    const std::size_t count =
        static_cast<std::size_t>(last_line - first_line) + 1;

    if (count == 1) {
        enqueueLine(first_line * config.lineBytes, req.write, req.cls,
                    req.tileTag, std::move(req.onComplete));
        return;
    }

    // Multi-line request: the caller's callback fires when the last
    // beat completes.
    const bool wants_completion = static_cast<bool>(req.onComplete);
    auto join = std::make_shared<SplitJoin>(count,
                                            std::move(req.onComplete));
    for (Addr line = first_line; line <= last_line; ++line) {
        MemCallback part;
        if (wants_completion)
            part = splitJoinPart(join);
        enqueueLine(line * config.lineBytes, req.write, req.cls,
                    req.tileTag, std::move(part));
    }
}

void
Dram::saveState(SnapshotWriter &w) const
{
    libra_assert(ctrlPipe.empty(), "DRAM snapshot with ctrl pipe busy");
    w.putU64(channelState.size());
    for (const Channel &ch : channelState) {
        libra_assert(ch.readQ.empty() && ch.writeQ.empty()
                         && !ch.wakeupScheduled,
                     "DRAM snapshot with a busy channel");
        w.putU64(ch.banks.size());
        for (const Bank &bank : ch.banks) {
            w.putBool(bank.rowOpen);
            w.putU64(bank.openRow);
            w.putU64(bank.readyAt);
        }
        w.putBool(ch.drainingWrites);
        w.putU64(ch.busReadyAt);
    }
    w.putU64(issueSeq);
}

void
Dram::loadState(SnapshotReader &r)
{
    if (!r.check(r.takeU64() == channelState.size(),
                 "DRAM channel count mismatches the configuration"))
        return;
    for (Channel &ch : channelState) {
        if (!r.check(r.takeU64() == ch.banks.size(),
                     "DRAM bank count mismatches the configuration"))
            return;
        for (Bank &bank : ch.banks) {
            bank.rowOpen = r.takeBool();
            bank.openRow = r.takeU64();
            bank.readyAt = r.takeU64();
        }
        ch.drainingWrites = r.takeBool();
        ch.busReadyAt = r.takeU64();
        // The wakeup event itself is transient; a drained queue always
        // leaves the flag cleared (saveState asserts it).
        ch.wakeupScheduled = false;
        ch.wakeupAt = maxTick;
    }
    issueSeq = r.takeU64();
}

} // namespace libra
