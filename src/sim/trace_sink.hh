/**
 * @file
 * Cycle-attribution trace sink: timeline events and interval samples.
 *
 * Components record begin/end spans, async (overlapping) spans, counter
 * samples and instants into per-component Lanes. A Lane is written only
 * by the simulation thread that owns the Gpu, so appends are plain
 * vector pushes — no locks, no atomics; only Lane *creation* and name
 * interning take a mutex, and both happen during wiring, never on the
 * hot path.
 *
 * The sink exports Chrome `trace_events` JSON loadable in Perfetto or
 * chrome://tracing (one process, one "thread" per Lane, ts = simulated
 * ticks). Export is deterministic: events are ordered by (tick, lane,
 * append order), so identical simulations produce byte-identical traces
 * regardless of host or sweep worker count.
 *
 * Cost model: a component holds a Lane pointer that is null unless a
 * sink is attached, so an untraced run pays one pointer test per call
 * site; a traced run pays one vector push_back per event.
 *
 * IntervalSampler (DRAM-bandwidth timelines, Fig. 7) is part of this
 * subsystem but records whether or not a sink is attached: its samples
 * feed FrameStats and the benches.
 */

#ifndef LIBRA_SIM_TRACE_SINK_HH
#define LIBRA_SIM_TRACE_SINK_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hh"
#include "common/types.hh"

namespace libra
{

class SnapshotWriter;
class SnapshotReader;

class TraceSink
{
  public:
    /** Event flavor, mapping 1:1 onto Chrome trace-event phases. */
    enum class Ev : std::uint8_t
    {
        Begin,      //!< 'B' — synchronous span start (must nest)
        End,        //!< 'E' — synchronous span end
        AsyncBegin, //!< 'b' — overlapping span start, keyed by id
        AsyncEnd,   //!< 'e' — overlapping span end, keyed by id
        Counter,    //!< 'C' — sampled value
        Instant     //!< 'i' — point event
    };

    struct Event
    {
        Tick tick;
        std::uint32_t name;  //!< interned name id
        std::uint64_t value; //!< async id / counter value / span arg
        Ev type;
    };

    /** One component's event buffer; single-writer, lock-free. */
    class Lane
    {
      public:
        void
        begin(std::uint32_t name_id, Tick t, std::uint64_t arg = 0)
        {
            append(Event{t, name_id, arg, Ev::Begin});
        }
        void
        end(Tick t)
        {
            append(Event{t, 0, 0, Ev::End});
        }
        void
        asyncBegin(std::uint32_t name_id, std::uint64_t id, Tick t)
        {
            append(Event{t, name_id, id, Ev::AsyncBegin});
        }
        void
        asyncEnd(std::uint32_t name_id, std::uint64_t id, Tick t)
        {
            append(Event{t, name_id, id, Ev::AsyncEnd});
        }
        void
        counter(std::uint32_t name_id, Tick t, std::uint64_t v)
        {
            append(Event{t, name_id, v, Ev::Counter});
        }
        void
        instant(std::uint32_t name_id, Tick t, std::uint64_t arg = 0)
        {
            append(Event{t, name_id, arg, Ev::Instant});
        }

        const std::string &name() const { return laneName; }
        const std::vector<Event> &events() const { return buf; }

      private:
        friend class TraceSink;

        void append(const Event &e) { buf.push_back(e); }

        std::string laneName;
        std::uint32_t tid = 0;
        std::vector<Event> buf;
    };

    TraceSink() = default;
    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    /**
     * The lane named @p name, created on first request. Lanes are
     * stable for the sink's lifetime; callers cache the pointer at
     * wiring time. Creation is mutex-guarded (safe from concurrent
     * wiring); the returned Lane must only ever be written by one
     * thread at a time.
     */
    Lane &lane(const std::string &name);

    /** Intern @p name, returning its id (mutex-guarded; wire-up only). */
    std::uint32_t nameId(const std::string &name);

    /** Total events currently buffered across all lanes. */
    std::size_t eventCount() const;

    /**
     * Render the Chrome trace_events JSON document: a metadata record
     * naming each lane, then every event ordered by (tick, lane,
     * append order).
     */
    std::string chromeTraceJson() const;

    /** chromeTraceJson() to @p path; IoError on failure. */
    Status writeChromeTrace(const std::string &path) const;

    /**
     * Serialize interned names and every lane (name, tid order,
     * buffered events) for a frame-boundary snapshot.
     */
    void exportState(SnapshotWriter &w) const;

    /**
     * Recreate what exportState() wrote into this (empty, freshly
     * constructed) sink. Lanes come back in saved order, so later
     * lane()/nameId() calls during Gpu wiring find the existing
     * entries and ids stay stable.
     */
    void importState(SnapshotReader &r);

  private:
    mutable std::mutex mtx; //!< guards lanes/names *creation* only
    // deque-like stability via unique_ptr: Lane addresses survive
    // vector growth.
    std::vector<std::unique_ptr<Lane>> lanes;
    std::vector<std::string> names;
};

/**
 * Fixed-width interval histogram of event ticks — the DRAM-bandwidth
 * timeline of paper Fig. 7. reset() pins the origin (e.g. the raster
 * phase start); record() buckets an event tick; samples() is the
 * per-interval count vector. flushTo() additionally emits the buckets
 * as Chrome counter events.
 */
class IntervalSampler
{
  public:
    void
    reset(Tick origin_tick, Tick interval_ticks)
    {
        origin = origin_tick;
        interval = interval_ticks < 1 ? 1 : interval_ticks;
        buckets.clear();
    }

    void
    record(Tick t, std::uint32_t n = 1)
    {
        if (t < origin)
            return;
        const auto b = static_cast<std::size_t>((t - origin) / interval);
        if (buckets.size() <= b)
            buckets.resize(b + 1, 0);
        buckets[b] += n;
    }

    const std::vector<std::uint32_t> &samples() const { return buckets; }
    Tick intervalTicks() const { return interval; }
    Tick originTick() const { return origin; }

    /** Emit one counter event per bucket into @p lane. */
    void
    flushTo(TraceSink::Lane &lane, std::uint32_t name_id) const
    {
        for (std::size_t i = 0; i < buckets.size(); ++i) {
            lane.counter(name_id,
                         origin + static_cast<Tick>(i) * interval,
                         buckets[i]);
        }
    }

  private:
    Tick origin = 0;
    Tick interval = 5000;
    std::vector<std::uint32_t> buckets;
};

} // namespace libra

#endif // LIBRA_SIM_TRACE_SINK_HH
