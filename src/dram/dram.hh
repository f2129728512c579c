/**
 * @file
 * LPDDR4-class main-memory timing and energy model.
 *
 * This is the DRAMsim3 substitute (see DESIGN.md): per-channel request
 * queues served by an FR-FCFS scheduler (row hits first, oldest first,
 * with an age cap against starvation) over banked DRAM with an
 * open-page policy, row hit/miss/conflict timing, shared per-channel
 * data buses, and command energy counters. Its essential property for
 * the paper's mechanism is that *latency rises steeply with
 * instantaneous demand*: bursts queue behind bank and bus occupancy,
 * which is exactly the congestion the LIBRA scheduler smooths away
 * (paper §III, Fig. 7).
 *
 * All timing parameters are expressed in GPU clock cycles (800 MHz,
 * Table I), so the quoted 50-100 cycle unloaded latency of the paper
 * maps onto the rowHit/rowConflict service times.
 */

#ifndef LIBRA_DRAM_DRAM_HH
#define LIBRA_DRAM_DRAM_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "cache/mem_system.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/event_queue.hh"

namespace libra
{

class SnapshotWriter;
class SnapshotReader;

/** Configurable LPDDR4 timing/geometry, defaults follow Table I. */
struct DramConfig
{
    std::uint32_t channels = 2;
    std::uint32_t banksPerChannel = 8;
    std::uint32_t rowBytes = 2048;       //!< row-buffer (page) size
    std::uint32_t lineBytes = 64;        //!< transfer granularity
    /**
     * Channel/bank interleave granularity in lines. Real controllers
     * interleave at a coarser grain than one line so sequential streams
     * collect row hits before switching banks.
     */
    std::uint32_t interleaveLines = 8;

    Tick ctrlLatency = 16;   //!< controller + PHY pipeline
    Tick tCas = 15;          //!< column access (row already open)
    Tick tRcd = 15;          //!< activate to column access
    Tick tRp = 15;           //!< precharge
    Tick tBurst = 5;         //!< data-bus occupancy per 64B line
    Tick tWr = 8;            //!< write recovery added to bank busy

    /** FR-FCFS reorder window (queue entries scanned per decision). */
    std::uint32_t schedulerWindow = 32;

    /** Age (cycles) past which the oldest read preempts row hits. */
    Tick starvationLimit = 400;

    /**
     * Write-queue watermarks: reads have priority until the write queue
     * exceeds the high watermark, then writes drain down to the low
     * watermark (standard mobile-controller write buffering).
     */
    std::uint32_t writeHighWatermark = 48;
    std::uint32_t writeLowWatermark = 16;
};

/**
 * Per-request service record, exposed to an optional observer so the GPU
 * can feed the LIBRA temperature table and the Fig. 7 timeline.
 */
struct DramAccessInfo
{
    Addr addr;
    bool write;
    TrafficClass cls;
    std::uint32_t tileTag;
    Tick queued;    //!< arrival tick
    Tick complete;  //!< data available / write accepted
    bool rowHit;
};

/** Main memory: implements MemSink at cache-line granularity. */
class Dram : public MemSink
{
  public:
    Dram(EventQueue &eq, const DramConfig &cfg);

    void access(MemReq req) override;

    /** Register an observer invoked once per serviced line. */
    void setObserver(std::function<void(const DramAccessInfo &)> obs)
    {
        observer = std::move(obs);
    }

    /** Queued (not yet issued) requests across all channels. */
    std::size_t pendingRequests() const;

    /** Aggregate statistics group ("dram.*"). */
    const StatGroup &stats() const { return statGroup; }
    StatGroup &stats() { return statGroup; }

    /** Total data moved, in bytes. */
    std::uint64_t bytesTransferred() const
    {
        return (reads.value() + writes.value()) * config.lineBytes;
    }

    const DramConfig &cfg() const { return config; }

    /**
     * Serialize persistent state (bank rows, bus clocks, issue
     * sequence) for a frame-boundary snapshot. Only legal while
     * quiescent: non-empty queues or an armed wakeup imply pending
     * events and are asserted against (a drained queue always runs the
     * last wakeup event, which clears the flag — see armWakeup()).
     */
    void saveState(SnapshotWriter &w) const;

    /** Restore what saveState() wrote (geometry must match). */
    void loadState(SnapshotReader &r);

    // Statistics (public counters, registered in statGroup).
    Counter reads;
    Counter writes;
    Counter rowHits;
    Counter rowMisses;    //!< bank was idle/closed: activate only
    Counter rowConflicts; //!< different row open: precharge + activate
    Counter totalReadLatency;  //!< sum over reads, for mean latency
    Counter activates;
    Counter precharges;
    std::array<Counter, static_cast<std::size_t>(TrafficClass::NumClasses)>
        classReads;
    std::array<Counter, static_cast<std::size_t>(TrafficClass::NumClasses)>
        classWrites;

    /**
     * Fault-injection hooks (armed by Gpu from a FaultPlan; see
     * src/check/fault_injector): every `testStallEvery`th issued
     * command starts `testStallTicks` late, modeling controller
     * hiccups / thermal throttling bursts. 0 disables.
     */
    std::uint64_t testStallEvery = 0;
    Tick testStallTicks = 0;

  private:
    struct Bank
    {
        bool rowOpen = false;
        std::uint64_t openRow = 0;
        Tick readyAt = 0; //!< bank can accept a new command
    };

    /** A queued request as the scheduler sees it. Plain data: the
     *  FR-FCFS scan reads contiguous entries and an erase shifts 24
     *  bytes per entry; the rest of the request waits in the pool. */
    struct QueueEntry
    {
        std::uint32_t bank;
        std::uint32_t slot;    //!< index into `requests`
        std::uint64_t row;
        Tick arrival;          //!< tick the request entered the DRAM
    };

    /** What only issue() needs, pooled while the request waits. */
    struct Request
    {
        Addr addr;
        bool write;
        TrafficClass cls;
        std::uint32_t tileTag;
        MemCallback onComplete; //!< may be empty
    };

    struct Channel
    {
        std::vector<Bank> banks;
        std::vector<QueueEntry> readQ;  //!< oldest first
        std::vector<QueueEntry> writeQ; //!< oldest first
        bool drainingWrites = false;
        Tick busReadyAt = 0;     //!< data bus free
        bool wakeupScheduled = false;
        Tick wakeupAt = maxTick;
    };

    /** A request crossing the fixed-latency controller/PHY pipeline. */
    struct CtrlEntry
    {
        std::uint32_t channel;
        bool write;
        QueueEntry entry;
    };

    /** Split an address into (channel, bank, row). */
    void mapAddress(Addr addr, std::uint32_t &channel, std::uint32_t &bank,
                    std::uint64_t &row) const;

    /** Enqueue one line-sized request. */
    void enqueueLine(Addr addr, bool write, TrafficClass cls,
                     std::uint32_t tile_tag, MemCallback cb);

    /** FR-FCFS: issue every request that can start now; re-arm timer. */
    void serviceChannel(std::uint32_t channel_idx);

    /** Pick an issueable request from @p q; -1 when none is ready. */
    int pickRequest(const Channel &channel,
                    const std::vector<QueueEntry> &q,
                    bool allow_starvation, Tick now,
                    Tick &next_wake) const;

    /** Issue one request on a ready bank and release its pool slot. */
    void issue(Channel &channel, const QueueEntry &entry);

    void armWakeup(std::uint32_t channel_idx, Tick when);

    EventQueue &queue;
    DramConfig config;
    std::vector<Channel> channelState;
    /** FIFO of requests inside the controller pipeline (see
     *  enqueueLine): drained front-first by the matching events. */
    std::deque<CtrlEntry> ctrlPipe;
    /** Pool of requests between enqueueLine() and issue(), recycled
     *  through freeRequests. Grows to the peak number in flight. */
    std::vector<Request> requests;
    std::vector<std::uint32_t> freeRequests;
    std::function<void(const DramAccessInfo &)> observer;
    std::uint64_t issueSeq = 0; //!< commands issued, for testStallEvery
    StatGroup statGroup{"dram"};
};

} // namespace libra

#endif // LIBRA_DRAM_DRAM_HH
