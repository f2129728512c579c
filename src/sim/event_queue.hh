/**
 * @file
 * Global event queue driving the timing simulation.
 *
 * libra-sim is event-driven: every latency-bearing resource schedules a
 * callback at the tick where its state changes, instead of being ticked
 * every cycle. Events scheduled for the same tick execute in scheduling
 * order (a stable sequence number breaks ties) so simulations are fully
 * deterministic.
 *
 * Performance (the simulator's own hot path — a single FHD frame is
 * hundreds of thousands of events):
 *
 *  - Almost every event lands a few ticks ahead (a 2-cycle L1 hit, a
 *    DRAM burst), so the queue is a timing wheel: one FIFO bucket per
 *    tick of a fixed 256-tick horizon, threaded through a per-slot
 *    `next` index so appending and popping never allocate, plus an
 *    occupancy bitmap that finds the next non-empty bucket with a few
 *    word scans. Only events at least a horizon ahead go to a small
 *    (when, seq) min-heap.
 *  - Callbacks live in a pool of slots recycled through a free-list and
 *    are built in place (SmallCallback::emplace). The pool is a list of
 *    fixed-size chunks that never reallocate, so a slot's address is
 *    stable: an event runs where it was built and its slot is freed
 *    only after it returns. Steady-state scheduling and dispatch
 *    perform no allocation and no callback relocation.
 *  - Far events drain before the bucket of the same tick: a far event
 *    for tick T was scheduled at or before T - 256 and a bucket entry
 *    for T strictly after it, so the far event has the smaller seq.
 *
 * The observable semantics — execution in (when, seq) order — are
 * identical to a heap-of-events design; the differential equivalence
 * suite pins that down with byte-identical counter dumps.
 */

#ifndef LIBRA_SIM_EVENT_QUEUE_HH
#define LIBRA_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "sim/callback.hh"

namespace libra
{

class SnapshotWriter;
class SnapshotReader;

/**
 * Deferred work item.
 *
 * Inline capacity is 40 bytes: room for the largest audited in-tree
 * capture — a MemCallback (32 bytes) plus a completion Tick, the shape
 * every cache/DRAM completion wrap uses. Captures up to five pointers
 * never allocate; larger captures fail to compile (see callback.hh) —
 * move shared state into a single shared_ptr block instead.
 */
using EventCallback = SmallCallback<void(), 40>;

/**
 * Deterministic event queue: a timing wheel of per-tick FIFO buckets
 * over pooled callback slots, with a min-heap for far-future events.
 *
 * A simulation owns exactly one EventQueue; components keep a reference
 * and schedule callbacks against it. Time only moves forward: scheduling
 * in the past is a simulator bug.
 */
class EventQueue
{
  public:
    EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulation time. */
    Tick now() const { return curTick; }

    /**
     * Schedule @p fn (any nullary callable that fits an EventCallback)
     * to run at absolute tick @p when (>= now()). The callable is
     * constructed directly in its pool slot.
     */
    template <typename F>
    void
    schedule(Tick when, F &&fn)
    {
        libra_assert(when >= curTick,
                     "scheduling in the past: ", when, " < ", curTick);
        Slot *slot = acquireSlot();
        slot->cb.emplace(std::forward<F>(fn));
        enqueue(when, slot);
    }

    /** Schedule @p fn to run @p delta ticks from now. */
    template <typename F>
    void
    scheduleAfter(Tick delta, F &&fn)
    {
        schedule(curTick + delta, std::forward<F>(fn));
    }

    bool empty() const { return nearCount == 0 && far.empty(); }

    std::size_t pending() const { return nearCount + far.size(); }

    /** Tick of the earliest pending event (maxTick when empty). */
    Tick nextEventTick() const;

    /**
     * Pop and execute the earliest event, advancing now().
     * @return false when the queue was empty.
     */
    bool runOne() { return runNext(maxTick); }

    /**
     * Run until the queue drains or the next event is past @p limit.
     * @return the number of events executed.
     */
    std::uint64_t runUntil(Tick limit = maxTick);

    /** Total events executed since construction. */
    std::uint64_t eventsExecuted() const { return executed; }

    /**
     * Serialize the clock state (now, sequence, executed). Only legal
     * on a drained queue — pending events are transient frame-internal
     * machinery and are never snapshotted (see check/snapshot.hh).
     */
    void exportState(SnapshotWriter &w) const;

    /** Restore what exportState() wrote; requires an empty queue. */
    void importState(SnapshotReader &r);

  private:
    /** Wheel horizon in ticks: events less than this far ahead go to
     *  a bucket. A constant, not a knob — it only moves the boundary
     *  between bucket and heap, never the execution order. */
    static constexpr std::size_t kWheelTicks = 256;
    static constexpr Tick kWheelMask = kWheelTicks - 1;
    static constexpr std::size_t kWheelWords = kWheelTicks / 64;

    /**
     * Slots per pool chunk, and the free-list's initial capacity. The
     * constructor reserves the first chunk, so scheduling is
     * allocation-free until more than this many events are pending
     * at once; each further chunk is reserved when the last one fills.
     * A constant, not a knob: it only moves allocation points.
     */
    static constexpr std::size_t kChunkSlots = 1024;

    /** One pooled callback; `next` links it into its bucket's FIFO. */
    struct Slot
    {
        EventCallback cb;
        Slot *next = nullptr;
    };

    /** Far-heap element: plain data, the callback stays in its slot. */
    struct FarEntry
    {
        Tick when;
        std::uint64_t seq;
        Slot *slot;
    };

    struct Later
    {
        bool
        operator()(const FarEntry &a, const FarEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** Take a pool slot (free-list first, then construct one). */
    Slot *
    acquireSlot()
    {
        if (!freeSlots.empty()) {
            Slot *slot = freeSlots.back();
            freeSlots.pop_back();
            return slot;
        }
        if (chunks.back().size() == kChunkSlots) {
            chunks.emplace_back();
            chunks.back().reserve(kChunkSlots);
        }
        return &chunks.back().emplace_back();
    }

    /** Queue the filled slot @p slot for tick @p when. */
    void enqueue(Tick when, Slot *slot);

    /** Tick of the earliest bucket entry; requires nearCount != 0. */
    Tick nextNearTick() const;

    /** Run the earliest event if it is due by @p limit. */
    bool runNext(Tick limit);

    /** Execute and release slot @p slot. */
    void runSlot(Slot *slot);

    /** Callback pool. Each chunk is reserved to kChunkSlots and never
     *  grows past it, so a slot never moves (growing `chunks` moves
     *  only the chunk headers) and buckets, the far heap and the
     *  free-list hold plain Slot pointers. */
    std::vector<std::vector<Slot>> chunks;
    std::vector<Slot *> freeSlots;

    /** Bucket b holds the events of the one tick in
     *  [curTick, curTick + kWheelTicks) congruent to b; head and tail
     *  are only meaningful while the bucket's occupancy bit is set. */
    std::array<Slot *, kWheelTicks> bucketHead;
    std::array<Slot *, kWheelTicks> bucketTail;
    std::array<std::uint64_t, kWheelWords> occupied{};
    std::size_t nearCount = 0;

    /** Events at least kWheelTicks ahead when scheduled. */
    std::vector<FarEntry> far;

    Tick curTick = 0;
    /** Advances on every schedule (the snapshot Engine section writes
     *  it); only far entries need their seq stored. */
    std::uint64_t nextSeq = 0;
    std::uint64_t executed = 0;
};

} // namespace libra

#endif // LIBRA_SIM_EVENT_QUEUE_HH
