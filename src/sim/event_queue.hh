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
 *  - The priority heap holds 24-byte POD entries {when, seq, slot};
 *    callbacks live in a side pool and never move during heap sifts.
 *    The old design kept the 48-byte SmallCallback inside the heap
 *    element, so every sift step paid an indirect relocate call (and a
 *    nested one for captured MemCallbacks) — the single largest cost in
 *    the whole simulator under gprof.
 *  - Callback slots are recycled through a free-list, so steady-state
 *    scheduling performs no allocation.
 *  - Events scheduled for the *current* tick bypass the heap entirely:
 *    they are appended to a same-tick FIFO batch and popped in O(1).
 *    This is order-correct because every heap entry for the current
 *    tick predates (has a smaller seq than) anything appended to the
 *    batch after the tick started.
 *
 * The observable semantics — execution in (when, seq) order — are
 * identical to the original heap-of-events design; the differential
 * equivalence suite pins that down with byte-identical counter dumps.
 */

#ifndef LIBRA_SIM_EVENT_QUEUE_HH
#define LIBRA_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

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
 * Deterministic event queue: POD min-heap over pooled callback slots,
 * with a same-tick FIFO fast path.
 *
 * A simulation owns exactly one EventQueue; components keep a reference
 * and schedule callbacks against it. Time only moves forward: scheduling
 * in the past is a simulator bug.
 */
class EventQueue
{
  public:
    EventQueue()
    {
        heap.reserve(kInitialCapacity);
        slots.reserve(kInitialCapacity);
        freeSlots.reserve(kInitialCapacity);
        nowQ.reserve(kInitialCapacity);
    }
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulation time. */
    Tick now() const { return curTick; }

    /** Schedule @p cb to run at absolute tick @p when (>= now()). */
    void schedule(Tick when, EventCallback cb);

    /** Schedule @p cb to run @p delta ticks from now. */
    void scheduleAfter(Tick delta, EventCallback cb)
    {
        schedule(curTick + delta, std::move(cb));
    }

    bool empty() const { return heap.empty() && nowHead == nowQ.size(); }

    std::size_t pending() const
    {
        return heap.size() + (nowQ.size() - nowHead);
    }

    /** Tick of the earliest pending event (maxTick when empty). */
    Tick nextEventTick() const
    {
        if (nowHead != nowQ.size())
            return curTick;
        return heap.empty() ? maxTick : heap.front().when;
    }

    /**
     * Pop and execute the earliest event, advancing now().
     * @return false when the queue was empty.
     */
    bool runOne();

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
    /**
     * Pre-reserved capacity of the heap, the callback pool and its
     * free-list. Scheduling is allocation-free until the number of
     * *pending* events first exceeds this (the vectors then grow
     * geometrically, as usual).
     */
    static constexpr std::size_t kInitialCapacity = 1024;

    /**
     * Heap element: plain data only, so sifts are branch-light memcpys.
     * The callback stays put in slots[slot] until execution.
     */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    struct Later
    {
        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** Take a pool slot for @p cb (free-list first, then grow). */
    std::uint32_t acquireSlot(EventCallback &&cb);

    /** Execute and release slot @p slot. */
    void runSlot(std::uint32_t slot);

    std::vector<HeapEntry> heap;

    /** Callback pool; slot indices are stable for a callback's whole
     *  pendency, so heap sifts never touch a callback. */
    std::vector<EventCallback> slots;
    std::vector<std::uint32_t> freeSlots;

    /** Same-tick batch: slots scheduled for curTick after curTick was
     *  reached, drained FIFO from nowHead. Recycled (cleared, capacity
     *  kept) whenever it drains. */
    std::vector<std::uint32_t> nowQ;
    std::size_t nowHead = 0;

    Tick curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t executed = 0;
};

} // namespace libra

#endif // LIBRA_SIM_EVENT_QUEUE_HH
