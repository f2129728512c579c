#include "sim/event_queue.hh"

#include <algorithm>

#include "check/snapshot.hh"
#include "common/log.hh"

namespace libra
{

std::uint32_t
EventQueue::acquireSlot(EventCallback &&cb)
{
    if (!freeSlots.empty()) {
        const std::uint32_t slot = freeSlots.back();
        freeSlots.pop_back();
        slots[slot] = std::move(cb);
        return slot;
    }
    const std::uint32_t slot = static_cast<std::uint32_t>(slots.size());
    slots.push_back(std::move(cb));
    return slot;
}

void
EventQueue::schedule(Tick when, EventCallback cb)
{
    libra_assert(when >= curTick,
                 "scheduling in the past: ", when, " < ", curTick);
    const std::uint32_t slot = acquireSlot(std::move(cb));
    if (when == curTick) {
        // Same-tick batch: FIFO order is (when, seq) order here, since
        // every heap entry at curTick was scheduled before the tick
        // started and therefore carries a smaller seq.
        ++nextSeq;
        nowQ.push_back(slot);
        return;
    }
    heap.push_back(HeapEntry{when, nextSeq++, slot});
    std::push_heap(heap.begin(), heap.end(), Later{});
}

void
EventQueue::runSlot(std::uint32_t slot)
{
    // Move the callback out before invoking: the callback may schedule
    // new events, which may recycle this very slot.
    EventCallback cb = std::move(slots[slot]);
    freeSlots.push_back(slot);
    ++executed;
    cb();
}

bool
EventQueue::runOne()
{
    // Heap entries at curTick always precede the same-tick batch (their
    // seq is smaller); the batch precedes any strictly later tick.
    if (!heap.empty() && heap.front().when == curTick) {
        std::pop_heap(heap.begin(), heap.end(), Later{});
        const std::uint32_t slot = heap.back().slot;
        heap.pop_back();
        runSlot(slot);
        return true;
    }
    if (nowHead != nowQ.size()) {
        const std::uint32_t slot = nowQ[nowHead++];
        if (nowHead == nowQ.size()) {
            nowQ.clear();
            nowHead = 0;
        }
        runSlot(slot);
        return true;
    }
    if (heap.empty())
        return false;
    std::pop_heap(heap.begin(), heap.end(), Later{});
    const HeapEntry e = heap.back();
    heap.pop_back();
    libra_assert(e.when >= curTick, "heap returned a past event");
    curTick = e.when;
    runSlot(e.slot);
    return true;
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    std::uint64_t count = 0;
    while (!empty() && nextEventTick() <= limit) {
        runOne();
        ++count;
    }
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
