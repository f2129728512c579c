/**
 * @file
 * Resident sim-farm server (ROADMAP item 2, DESIGN.md §12).
 *
 * Accepts simulation requests over a local (AF_UNIX) stream socket in
 * the newline-delimited JSON protocol of farm_protocol.hh, and serves
 * each from a persistent ResultCache keyed on (config hash, scene hash,
 * code version, frame range):
 *
 *  - **cache hit** — the stored `libra.run_report/1` bytes are streamed
 *    back verbatim, byte-identical to the run that produced them;
 *  - **in-flight dedup** — a request identical to one currently being
 *    simulated attaches to it ("coalesced") instead of re-queuing the
 *    work; every waiter gets the same bytes;
 *  - **cache miss** — the request is journaled (crash safety), queued
 *    under admission control (bounded queue + per-connection quota) and
 *    simulated on the worker pool via SweepRunner::runWithPolicy, which
 *    supplies the failure machinery of DESIGN.md §7: per-attempt
 *    wall-clock deadlines (watchdog CancelToken), bounded
 *    exponential-backoff retries, and attributable "job N [key]:"
 *    failure messages. The sweep's Quarantine rule, applied across
 *    requests, fails repeat-offender configs fast so one poisoned
 *    config cannot wedge the farm.
 *
 * Crash safety: every accepted request is appended to a Journal
 * (sim/journal.hh) before it is queued, and is either completed into
 * the cache or re-run at the next start() — recovery replays the
 * journal before the socket opens, so a kill -9 loses no accepted work
 * and a re-sent request is a byte-identical cache hit. The journal is
 * truncated once recovery lands everything in the cache.
 *
 * Scenes are shared through one SceneCache: concurrent requests against
 * the same (benchmark, resolution) build geometry/textures once (the
 * Thread-Batching observation — correlated requests share working
 * sets).
 */

#ifndef LIBRA_FARM_FARM_SERVER_HH
#define LIBRA_FARM_FARM_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "check/result_cache.hh"
#include "common/status.hh"
#include "farm/farm_protocol.hh"
#include "sim/journal.hh"
#include "sim/sweep.hh"

namespace libra
{

inline constexpr const char *kFarmJournalSchema = "libra.farm_journal/1";

/** Server configuration. */
struct FarmOptions
{
    std::string socketPath; //!< AF_UNIX path (stale file is replaced)
    std::string cacheDir;   //!< ResultCache directory (required)
    std::string journalPath; //!< accepted-request journal; "" = none

    unsigned workers = 1;        //!< simulation worker threads
    std::uint32_t maxQueue = 64; //!< queued-task bound (admission)
    std::uint32_t clientQuota = 16; //!< un-answered requests per conn
    std::uint64_t cacheMaxEntries = 0; //!< trim target; 0 = unlimited

    // Failure policy forwarded into SweepPolicy per simulation.
    std::uint64_t deadlineMs = 0;
    std::uint32_t maxRetries = 0;
    std::uint64_t backoffMs = 0;
    /** Permanent failures of one configHash before its requests fail
     *  fast (the Quarantine rule); 0 disables. */
    std::uint32_t quarantineThreshold = 0;
};

/** Monotonic server counters (stats op; test assertions). */
struct FarmStats
{
    std::uint64_t connections = 0;
    std::uint64_t requests = 0;   //!< parsed request lines
    std::uint64_t cacheHits = 0;
    std::uint64_t coalesced = 0;  //!< attached to in-flight work
    std::uint64_t simulations = 0; //!< actually executed (misses)
    std::uint64_t failures = 0;   //!< failed simulate tasks (per task,
                                  //!< not per coalesced waiter)
    std::uint64_t rejected = 0;   //!< admission-control rejections
    std::uint64_t recovered = 0;  //!< journal-replay completions
    std::uint64_t evicted = 0;    //!< cache entries trimmed
};

class FarmServer
{
  public:
    /**
     * Open cache + journal, replay unfinished journaled work into the
     * cache (recovery), bind the socket and start the listener/worker
     * threads. On error nothing is left running.
     */
    static Result<std::unique_ptr<FarmServer>> start(FarmOptions opt);

    ~FarmServer();

    FarmServer(const FarmServer &) = delete;
    FarmServer &operator=(const FarmServer &) = delete;

    /** Block until the server stops (shutdown request or stop()). */
    void wait();

    /** Ask the server to stop; idempotent, returns immediately. */
    void stop();

    FarmStats stats() const;

    const std::string &socketPath() const { return opt.socketPath; }

  private:
    struct Connection;
    struct Task;

    explicit FarmServer(FarmOptions options);

    Status recoverFromJournal();
    void listenerLoop();
    void connectionLoop(std::shared_ptr<Connection> conn);
    void workerLoop();

    void handleLine(const std::shared_ptr<Connection> &conn,
                    const std::string &line);
    void handleSimulate(const std::shared_ptr<Connection> &conn,
                        const FarmRequest &req);
    /** Attach to an identical in-flight task if one exists (taskMtx
     *  must be held); true if the request was coalesced. */
    bool tryAttachLocked(const std::shared_ptr<Connection> &conn,
                         const std::string &id,
                         const std::string &keyStr);
    /** Join connection threads that announced completion (or, with
     *  @p all, every connection thread). Joins happen with connMtx
     *  released so an exiting thread can still deregister itself. */
    void reapConnThreads(bool all);
    /** Run one simulate request to a report (shared by workers and
     *  journal recovery); status carries the attributable failure. */
    Result<std::string> simulate(const FarmRequest &req);
    void finishTask(const std::shared_ptr<Task> &task);

    void respond(const std::shared_ptr<Connection> &conn,
                 const FarmResponse &resp,
                 const std::string *report = nullptr);

    FarmOptions opt;
    ResultCache cache;
    SceneCache scenes;

    int listenFd = -1;
    std::atomic<bool> stopping{false};

    std::thread listener;
    std::vector<std::thread> workers;

    mutable std::mutex connMtx;
    std::vector<std::shared_ptr<Connection>> conns;
    std::vector<std::thread> connThreads; //!< reaped by the listener
    /** Threads that finished connectionLoop and can be joined without
     *  blocking; ids are appended by the exiting thread itself and
     *  consumed by reapConnThreads (both under connMtx). */
    std::vector<std::thread::id> doneConnThreads;

    std::mutex taskMtx; //!< guards queue + inflight
    std::condition_variable taskCv;
    std::deque<std::shared_ptr<Task>> queue;
    std::unordered_map<std::string, std::shared_ptr<Task>> inflight;
    Quarantine quarantine;
    /** Accepted-request journal; not open when journalPath is empty.
     *  Appends serialize inside the Journal, never under taskMtx, so
     *  admission control never waits behind a disk sync. */
    Journal journal;

    mutable std::mutex statsMtx;
    FarmStats counters;

    std::mutex waitMtx;
    std::condition_variable waitCv;
    bool stopped = false;
};

} // namespace libra

#endif // LIBRA_FARM_FARM_SERVER_HH
