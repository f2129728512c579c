#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>

#include "check/snapshot.hh"

namespace libra
{

EventQueue::EventQueue() : chunks(1)
{
    chunks.front().reserve(kChunkSlots);
    freeSlots.reserve(kChunkSlots);
}

void
EventQueue::enqueue(Tick when, Slot *slot)
{
    const std::uint64_t seq = nextSeq++;
    if (when - curTick >= kWheelTicks) {
        far.push_back(FarEntry{when, seq, slot});
        std::push_heap(far.begin(), far.end(), Later{});
        return;
    }
    // Within the horizon, so bucket b holds exactly one tick; appending
    // keeps it in seq order.
    const std::size_t b = when & kWheelMask;
    std::uint64_t &word = occupied[b / 64];
    const std::uint64_t bit = std::uint64_t(1) << (b % 64);
    slot->next = nullptr;
    if (word & bit)
        bucketTail[b]->next = slot;
    else
        bucketHead[b] = slot;
    word |= bit;
    bucketTail[b] = slot;
    ++nearCount;
}

Tick
EventQueue::nextNearTick() const
{
    // Scan the bitmap circularly from curTick's bucket: every bucket
    // entry lies within one horizon of curTick, so the first set bit is
    // the earliest tick. The start word is visited twice — first its
    // bits at or after the start, finally (after wrapping) the rest.
    const std::size_t start = curTick & kWheelMask;
    std::size_t w = start / 64;
    std::uint64_t bits = occupied[w] & (~std::uint64_t(0) << (start % 64));
    for (std::size_t i = 0; i <= kWheelWords; ++i) {
        if (bits != 0) {
            const std::size_t b =
                w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
            return curTick + ((b - start) & kWheelMask);
        }
        w = (w + 1) % kWheelWords;
        bits = occupied[w];
    }
    panic("timing wheel count says non-empty, bitmap says empty");
}

Tick
EventQueue::nextEventTick() const
{
    const Tick near = nearCount != 0 ? nextNearTick() : maxTick;
    return far.empty() ? near : std::min(near, far.front().when);
}

void
EventQueue::runSlot(Slot *slot)
{
    // Invoke in place: the callback may schedule new events, which may
    // add chunks but never move this slot, and the slot joins the
    // free-list only after the call, so no event scheduled meanwhile
    // can be built over the running callable.
    EventCallback &cb = slot->cb;
    ++executed;
    cb();
    cb.reset();
    freeSlots.push_back(slot);
}

bool
EventQueue::runNext(Tick limit)
{
    const Tick near = nearCount != 0 ? nextNearTick() : maxTick;
    // A far event ties with the bucket of its tick only by having been
    // scheduled a horizon earlier, i.e. with a smaller seq: it runs
    // first.
    if (!far.empty() && far.front().when <= near) {
        if (far.front().when > limit)
            return false;
        std::pop_heap(far.begin(), far.end(), Later{});
        const FarEntry e = far.back();
        far.pop_back();
        libra_assert(e.when >= curTick, "far heap returned a past event");
        curTick = e.when;
        runSlot(e.slot);
        return true;
    }
    if (nearCount == 0 || near > limit)
        return false;

    const std::size_t b = near & kWheelMask;
    Slot *slot = bucketHead[b];
    Slot *next = slot->next;
    if (!next)
        occupied[b / 64] &= ~(std::uint64_t(1) << (b % 64));
    else
        bucketHead[b] = next;
    --nearCount;
    curTick = near;
    runSlot(slot);
    return true;
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    std::uint64_t count = 0;
    while (runNext(limit))
        ++count;
    return count;
}

void
EventQueue::exportState(SnapshotWriter &w) const
{
    libra_assert(empty(), "event-queue snapshot with pending events");
    w.putU64(curTick);
    w.putU64(nextSeq);
    w.putU64(executed);
}

void
EventQueue::importState(SnapshotReader &r)
{
    libra_assert(empty(), "event-queue restore into a non-empty queue");
    curTick = r.takeU64();
    nextSeq = r.takeU64();
    executed = r.takeU64();
}

} // namespace libra
