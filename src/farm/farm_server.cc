#include "farm/farm_server.hh"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "check/snapshot.hh"
#include "common/log.hh"
#include "trace/json.hh"
#include "trace/run_report.hh"
#include "workload/benchmarks.hh"

namespace libra
{

namespace
{

namespace fs = std::filesystem;

/** One journal line: the accepted request, re-parseable for replay. */
std::string
journalLine(const std::string &key, const FarmRequest &req)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema");
    w.value(kFarmJournalSchema);
    w.key("key");
    w.value(key);
    // The request rides along as a string so replay reuses
    // parseFarmRequest verbatim instead of a second schema walk.
    w.key("request_line");
    w.value(farmRequestLine(req));
    w.endObject();
    return w.str();
}

} // namespace

/** One client connection. The fd is written under writeMtx only, and
 *  close happens under the same mutex, so a worker responding can never
 *  race a concurrently-closing reader onto a reused descriptor. */
struct FarmServer::Connection
{
    int fd = -1;
    std::mutex writeMtx;
    bool open = true; //!< under writeMtx
    std::atomic<std::uint32_t> pending{0}; //!< unanswered accepted reqs
};

/** One unit of simulation work, shared by every coalesced waiter. */
struct FarmServer::Task
{
    FarmRequest req;
    ResultCacheKey key;
    std::string keyStr;

    struct Waiter
    {
        std::shared_ptr<Connection> conn;
        std::string id;
        FarmCacheState state = FarmCacheState::Miss;
    };

    std::mutex mtx;
    bool done = false;                //!< under mtx
    std::vector<Waiter> waiters;      //!< under mtx
    std::string report;               //!< set by the worker before done
    Status failure = Status::ok();    //!< set by the worker before done
};

Result<std::unique_ptr<FarmServer>>
FarmServer::start(FarmOptions options)
{
    if (options.cacheDir.empty()) {
        return Status::error(ErrorCode::InvalidArgument,
                             "farm: cacheDir is required");
    }
    if (options.socketPath.empty()) {
        return Status::error(ErrorCode::InvalidArgument,
                             "farm: socketPath is required");
    }
    sockaddr_un addr{};
    if (options.socketPath.size() >= sizeof(addr.sun_path)) {
        return Status::error(ErrorCode::InvalidArgument,
                             "farm: socket path longer than ",
                             sizeof(addr.sun_path) - 1, " bytes: ",
                             options.socketPath);
    }
    if (options.workers == 0)
        options.workers = 1;

    std::unique_ptr<FarmServer> srv(new FarmServer(std::move(options)));

    Result<ResultCache> cache = ResultCache::open(srv->opt.cacheDir);
    if (!cache.isOk())
        return cache.status();
    srv->cache = std::move(*cache);

    // Recovery before the socket opens: every previously accepted
    // request is completed into the cache (or warned away as
    // permanently failing) before any client can connect.
    if (Status st = srv->recoverFromJournal(); !st.isOk())
        return st;

    if (!srv->opt.journalPath.empty()) {
        // Recovery drained the journal into the cache, so truncate —
        // the cache entry, not the journal line, is the durable record
        // of completed work.
        if (Status st = srv->journal.open(srv->opt.journalPath,
                                          Journal::Mode::Truncate);
            !st.isOk())
            return st;
    }

    std::error_code ec;
    fs::remove(srv->opt.socketPath, ec); // stale socket from a kill -9

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        return Status::error(ErrorCode::IoError, "farm: socket(): ",
                             std::strerror(errno));
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, srv->opt.socketPath.c_str(),
                srv->opt.socketPath.size() + 1);
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0
        || ::listen(fd, 64) != 0) {
        const int err = errno;
        ::close(fd);
        return Status::error(ErrorCode::IoError, "farm: cannot listen "
                             "on ", srv->opt.socketPath, ": ",
                             std::strerror(err));
    }
    srv->listenFd = fd;

    for (unsigned i = 0; i < srv->opt.workers; ++i)
        srv->workers.emplace_back([s = srv.get()] { s->workerLoop(); });
    srv->listener = std::thread([s = srv.get()] { s->listenerLoop(); });
    inform("farm: serving on ", srv->opt.socketPath, " (",
           srv->opt.workers, " workers, cache ", srv->opt.cacheDir, ")");
    return srv;
}

FarmServer::FarmServer(FarmOptions options)
    : opt(std::move(options)), quarantine(opt.quarantineThreshold)
{}

FarmServer::~FarmServer()
{
    stop();
    if (listener.joinable())
        listener.join();
    for (std::thread &w : workers)
        w.join();
    reapConnThreads(/*all=*/true);
    if (listenFd >= 0)
        ::close(listenFd);
    std::error_code ec;
    fs::remove(opt.socketPath, ec);
}

void
FarmServer::wait()
{
    std::unique_lock<std::mutex> lock(waitMtx);
    waitCv.wait(lock, [this] { return stopped; });
}

void
FarmServer::stop()
{
    bool expected = false;
    if (!stopping.compare_exchange_strong(expected, true))
        return;
    if (listenFd >= 0)
        ::shutdown(listenFd, SHUT_RDWR);
    {
        std::lock_guard<std::mutex> lock(connMtx);
        for (const std::shared_ptr<Connection> &c : conns) {
            std::lock_guard<std::mutex> wl(c->writeMtx);
            if (c->open)
                ::shutdown(c->fd, SHUT_RDWR);
        }
    }
    {
        // `stopping` is set outside taskMtx, so notify while holding
        // it: a worker that just saw stopping==false must reach the cv
        // wait (releasing taskMtx) before this notify can fire, or the
        // wakeup is lost and shutdown wedges on the join.
        std::lock_guard<std::mutex> lock(taskMtx);
        taskCv.notify_all();
    }
    {
        std::lock_guard<std::mutex> lock(waitMtx);
        stopped = true;
    }
    waitCv.notify_all();
}

FarmStats
FarmServer::stats() const
{
    std::lock_guard<std::mutex> lock(statsMtx);
    return counters;
}

Status
FarmServer::recoverFromJournal()
{
    if (opt.journalPath.empty())
        return Status::ok();

    Result<std::vector<JsonValue>> records =
        Journal::load(opt.journalPath, kFarmJournalSchema);
    if (!records.isOk())
        return records.status();

    // Last entry for a key wins, in the key's first-seen order; earlier
    // duplicates describe the same work (the key pins benchmark,
    // config, frame range).
    std::vector<std::pair<std::string, FarmRequest>> pending;
    std::unordered_map<std::string, std::size_t> slot;
    for (std::size_t i = 0; i < records->size(); ++i) {
        const JsonValue *key = (*records)[i].find("key");
        const JsonValue *line = (*records)[i].find("request_line");
        if (!key || !key->isString() || !line || !line->isString()) {
            return Status::error(ErrorCode::CorruptData, "journal ",
                                 opt.journalPath, ": line ", i + 1,
                                 " lacks key/request_line");
        }
        Result<FarmRequest> req = parseFarmRequest(line->str);
        if (!req.isOk()) {
            return Status::error(ErrorCode::CorruptData, "journal ",
                                 opt.journalPath, ": line ", i + 1, ": ",
                                 req.status().message());
        }
        const auto [it, fresh] = slot.try_emplace(key->str, pending.size());
        if (fresh)
            pending.emplace_back(key->str, std::move(*req));
        else
            pending[it->second].second = std::move(*req);
    }

    for (const auto &[keyStr, req] : pending) {
        Result<const BenchmarkSpec *> spec =
            tryFindBenchmark(req.benchmark);
        Result<GpuConfig> cfg = farmRequestConfig(req);
        if (!spec.isOk() || !cfg.isOk()) {
            warn("farm journal: dropping unreplayable request ", keyStr,
                 ": ", (spec.isOk() ? cfg.status() : spec.status())
                           .message());
            continue;
        }
        const ResultCacheKey key{
            cfg->configHash(),
            snapshotSceneHash((*spec)->abbrev, req.width, req.height),
            kResultCacheCodeVersion, req.frames, req.firstFrame};
        if (cache.contains(key))
            continue; // completed before the crash
        inform("farm: recovering journaled request ", keyStr);
        Result<std::string> report = simulate(req);
        if (!report.isOk()) {
            warn("farm journal: replay of ", keyStr, " failed "
                 "permanently: ", report.status().message());
            continue;
        }
        if (Status st = cache.store(key, *report); !st.isOk())
            return st;
        std::lock_guard<std::mutex> lock(statsMtx);
        ++counters.recovered;
    }
    return Status::ok();
}

void
FarmServer::reapConnThreads(bool all)
{
    // Collect joinable handles under connMtx, but join with the lock
    // released: an exiting connection thread takes connMtx to
    // deregister itself, so joining under the lock would deadlock
    // against any thread still on its way out.
    std::vector<std::thread> done;
    {
        std::lock_guard<std::mutex> lock(connMtx);
        if (all) {
            done.swap(connThreads);
        } else {
            for (const std::thread::id id : doneConnThreads) {
                for (auto it = connThreads.begin();
                     it != connThreads.end(); ++it) {
                    if (it->get_id() == id) {
                        done.push_back(std::move(*it));
                        connThreads.erase(it);
                        break;
                    }
                }
            }
        }
        doneConnThreads.clear();
    }
    for (std::thread &t : done)
        t.join();
}

void
FarmServer::listenerLoop()
{
    while (!stopping.load()) {
        pollfd pfd{listenFd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 200);
        // A resident daemon sees an unbounded stream of short-lived CLI
        // connections; join the finished readers as we go so neither
        // the thread table nor the kernel's zombie threads accumulate.
        reapConnThreads(/*all=*/false);
        if (stopping.load())
            break;
        if (ready <= 0)
            continue;
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            continue;
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        {
            std::lock_guard<std::mutex> lock(statsMtx);
            ++counters.connections;
        }
        std::lock_guard<std::mutex> lock(connMtx);
        conns.push_back(conn);
        connThreads.emplace_back(
            [this, conn] { connectionLoop(conn); });
    }
}

void
FarmServer::connectionLoop(std::shared_ptr<Connection> conn)
{
    std::string acc;
    char buf[4096];
    while (!stopping.load()) {
        const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        acc.append(buf, static_cast<std::size_t>(n));
        std::size_t start = 0;
        while (true) {
            const std::size_t end = acc.find('\n', start);
            if (end == std::string::npos)
                break;
            if (end > start)
                handleLine(conn, acc.substr(start, end - start));
            start = end + 1;
        }
        acc.erase(0, start);
    }
    {
        std::lock_guard<std::mutex> lock(conn->writeMtx);
        conn->open = false;
        ::close(conn->fd);
        conn->fd = -1;
    }
    std::lock_guard<std::mutex> lock(connMtx);
    for (auto it = conns.begin(); it != conns.end(); ++it) {
        if (it->get() == conn.get()) {
            conns.erase(it);
            break;
        }
    }
    // Announce completion last: once the id is visible the listener
    // (or destructor) may join this thread, which then only waits for
    // the return below.
    doneConnThreads.push_back(std::this_thread::get_id());
}

void
FarmServer::handleLine(const std::shared_ptr<Connection> &conn,
                       const std::string &line)
{
    {
        std::lock_guard<std::mutex> lock(statsMtx);
        ++counters.requests;
    }
    Result<FarmRequest> parsed = parseFarmRequest(line);
    if (!parsed.isOk()) {
        FarmResponse resp;
        resp.status = "error";
        resp.code = errorCodeName(parsed.status().code());
        resp.message = parsed.status().message();
        respond(conn, resp);
        return;
    }
    const FarmRequest &req = *parsed;
    switch (req.op) {
      case FarmOp::Simulate:
        handleSimulate(conn, req);
        return;
      case FarmOp::Ping: {
        FarmResponse resp;
        resp.id = req.id;
        resp.status = "ok";
        respond(conn, resp);
        return;
      }
      case FarmOp::Stats: {
        const FarmStats s = stats();
        JsonWriter w;
        w.beginObject();
        w.key("connections"); w.value(s.connections);
        w.key("requests"); w.value(s.requests);
        w.key("cache_hits"); w.value(s.cacheHits);
        w.key("coalesced"); w.value(s.coalesced);
        w.key("simulations"); w.value(s.simulations);
        w.key("failures"); w.value(s.failures);
        w.key("rejected"); w.value(s.rejected);
        w.key("recovered"); w.value(s.recovered);
        w.key("evicted"); w.value(s.evicted);
        w.endObject();
        FarmResponse resp;
        resp.id = req.id;
        resp.status = "ok";
        resp.payload = w.str();
        respond(conn, resp);
        return;
      }
      case FarmOp::Shutdown: {
        FarmResponse resp;
        resp.id = req.id;
        resp.status = "ok";
        respond(conn, resp);
        inform("farm: shutdown requested by client");
        stop();
        return;
      }
    }
}

void
FarmServer::handleSimulate(const std::shared_ptr<Connection> &conn,
                           const FarmRequest &req)
{
    FarmResponse resp;
    resp.id = req.id;

    Result<const BenchmarkSpec *> spec = tryFindBenchmark(req.benchmark);
    if (!spec.isOk()) {
        resp.status = "error";
        resp.code = errorCodeName(spec.status().code());
        resp.message = spec.status().message();
        respond(conn, resp);
        return;
    }
    Result<GpuConfig> cfg = farmRequestConfig(req);
    if (!cfg.isOk()) {
        resp.status = "error";
        resp.code = errorCodeName(cfg.status().code());
        resp.message = cfg.status().message();
        respond(conn, resp);
        return;
    }

    const ResultCacheKey key{
        cfg->configHash(),
        snapshotSceneHash((*spec)->abbrev, req.width, req.height),
        kResultCacheCodeVersion, req.frames, req.firstFrame};
    resp.key = key.toString();

    // Fast path: serve a hit without touching the task lock.
    Result<std::string> hit = cache.lookup(key);
    if (hit.isOk()) {
        resp.status = "ok";
        resp.cache = FarmCacheState::Hit;
        resp.reportBytes = hit->size();
        {
            std::lock_guard<std::mutex> lock(statsMtx);
            ++counters.cacheHits;
        }
        respond(conn, resp, &*hit);
        return;
    }
    if (hit.status().code() != ErrorCode::NotFound) {
        warn("farm: unusable cache entry for ", resp.key, " (",
             hit.status().message(), ") — re-simulating");
    }

    if (Status st = quarantine.check(key.configHash); !st.isOk()) {
        resp.status = "error";
        resp.code = errorCodeName(st.code());
        resp.message = st.message();
        respond(conn, resp);
        return;
    }

    // Admission bookkeeping under taskMtx — no I/O here (replies go
    // out after the lock drops), so coalesce attaches and quota
    // rejections from other connections never serialize behind a
    // journal sync, a cache file read, or a stalled client's socket.
    bool turnedAway = false;
    {
        std::lock_guard<std::mutex> lock(taskMtx);

        if (conn->pending.load() >= opt.clientQuota) {
            resp.status = "rejected";
            resp.code = errorCodeName(ErrorCode::Unavailable);
            resp.message = "per-client quota of "
                + std::to_string(opt.clientQuota)
                + " outstanding requests reached";
            std::lock_guard<std::mutex> slock(statsMtx);
            ++counters.rejected;
            turnedAway = true;
        } else if (tryAttachLocked(conn, req.id, resp.key)) {
            return;
        } else if (queue.size() >= opt.maxQueue) {
            resp.status = "rejected";
            resp.code = errorCodeName(ErrorCode::Unavailable);
            resp.message = "farm queue full ("
                + std::to_string(opt.maxQueue) + " tasks)";
            std::lock_guard<std::mutex> slock(statsMtx);
            ++counters.rejected;
            turnedAway = true;
        }
    }
    if (turnedAway) {
        respond(conn, resp);
        return;
    }

    // The fast-path lookup raced a concurrent completion if the entry
    // appeared since (store lands before the in-flight entry is
    // erased, so a finished task is visible here); re-check before
    // paying for a journal append and a simulation.
    if (Result<std::string> again = cache.lookup(key); again.isOk()) {
        resp.status = "ok";
        resp.cache = FarmCacheState::Hit;
        resp.reportBytes = again->size();
        {
            std::lock_guard<std::mutex> slock(statsMtx);
            ++counters.cacheHits;
        }
        respond(conn, resp, &*again);
        return;
    }

    // Accept: journal first (durable on disk), so a kill -9 between
    // here and the cache store loses no accepted work. A duplicate line
    // for a key already admitted by a racing connection is harmless —
    // replay dedups on the key.
    if (journal.isOpen()) {
        if (Status st = journal.append(journalLine(resp.key, req));
            !st.isOk()) {
            resp.status = "error";
            resp.code = errorCodeName(st.code());
            resp.message = st.message();
            respond(conn, resp);
            return;
        }
    }

    {
        std::lock_guard<std::mutex> lock(taskMtx);

        // Both admission races can re-open while the journal write
        // runs unlocked: an identical request may have been admitted
        // (attach to it) and the queue may have filled (reject; the
        // stray journal line only costs a redundant, cache-checked
        // replay at next start).
        if (tryAttachLocked(conn, req.id, resp.key))
            return;
        if (queue.size() >= opt.maxQueue) {
            resp.status = "rejected";
            resp.code = errorCodeName(ErrorCode::Unavailable);
            resp.message = "farm queue full ("
                + std::to_string(opt.maxQueue) + " tasks)";
            std::lock_guard<std::mutex> slock(statsMtx);
            ++counters.rejected;
        } else {
            auto task = std::make_shared<Task>();
            task->req = req;
            task->key = key;
            task->keyStr = resp.key;
            task->waiters.push_back({conn, req.id, FarmCacheState::Miss});
            conn->pending.fetch_add(1);
            inflight.emplace(task->keyStr, task);
            queue.push_back(std::move(task));
            taskCv.notify_one();
            return;
        }
    }
    respond(conn, resp);
}

bool
FarmServer::tryAttachLocked(const std::shared_ptr<Connection> &conn,
                            const std::string &id,
                            const std::string &keyStr)
{
    const auto it = inflight.find(keyStr);
    if (it == inflight.end())
        return false;
    const std::shared_ptr<Task> &task = it->second;
    std::lock_guard<std::mutex> tlock(task->mtx);
    libra_assert(!task->done,
                 "finished task still registered in-flight");
    task->waiters.push_back({conn, id, FarmCacheState::Coalesced});
    conn->pending.fetch_add(1);
    std::lock_guard<std::mutex> slock(statsMtx);
    ++counters.coalesced;
    return true;
}

Result<std::string>
FarmServer::simulate(const FarmRequest &req)
{
    Result<const BenchmarkSpec *> spec = tryFindBenchmark(req.benchmark);
    if (!spec.isOk())
        return spec.status();
    Result<GpuConfig> cfg = farmRequestConfig(req);
    if (!cfg.isOk())
        return cfg.status();

    SweepJob job;
    job.spec = *spec;
    job.config = *cfg;
    job.frames = req.frames;
    job.firstFrame = req.firstFrame;

    // Deadlines and retries per attempt; the quarantine spans requests,
    // so it lives in the server (threshold 0 here) and counts each
    // failed task once.
    SweepPolicy policy;
    policy.deadlineMs = opt.deadlineMs;
    policy.maxRetries = opt.maxRetries;
    policy.backoffMs = opt.backoffMs;

    SweepRunner runner(1);
    SweepOutcome outcome =
        runner.runWithPolicy({job}, policy, &scenes);
    libra_assert(outcome.jobs.size() == 1,
                 "single-job sweep produced ", outcome.jobs.size(),
                 " outcomes");
    JobOutcome &result = outcome.jobs[0];
    if (!result.result.isOk())
        return result.result.status();
    return runReportJson(*result.result);
}

void
FarmServer::workerLoop()
{
    while (true) {
        std::shared_ptr<Task> task;
        {
            std::unique_lock<std::mutex> lock(taskMtx);
            taskCv.wait(lock, [this] {
                return stopping.load() || !queue.empty();
            });
            if (stopping.load())
                return; // journaled work recovers on restart
            task = std::move(queue.front());
            queue.pop_front();
        }

        Result<std::string> report = simulate(task->req);
        if (report.isOk()) {
            task->report = std::move(*report);
            if (Status st = cache.store(task->key, task->report);
                !st.isOk()) {
                // Waiters still get the in-memory bytes; only
                // memoization is lost.
                warn("farm: cannot persist result for ", task->keyStr,
                     ": ", st.message());
            }
            if (opt.cacheMaxEntries != 0) {
                Result<std::uint64_t> evicted =
                    cache.trim(opt.cacheMaxEntries);
                if (evicted.isOk() && *evicted != 0) {
                    std::lock_guard<std::mutex> lock(statsMtx);
                    counters.evicted += *evicted;
                }
            }
            std::lock_guard<std::mutex> lock(statsMtx);
            ++counters.simulations;
        } else {
            task->failure = report.status();
            quarantine.record(task->key.configHash, task->failure.code());
        }
        finishTask(task);
    }
}

void
FarmServer::finishTask(const std::shared_ptr<Task> &task)
{
    {
        // De-register first: a request arriving after this sees the
        // cache entry (hit); one arriving before blocks on taskMtx and
        // attaches before done is set below.
        std::lock_guard<std::mutex> lock(taskMtx);
        inflight.erase(task->keyStr);
    }
    std::vector<Task::Waiter> waiters;
    {
        std::lock_guard<std::mutex> lock(task->mtx);
        task->done = true;
        waiters.swap(task->waiters);
    }
    if (!task->failure.isOk()) {
        // One failed task is one failure, however many coalesced
        // waiters hear about it.
        std::lock_guard<std::mutex> lock(statsMtx);
        ++counters.failures;
    }
    for (const Task::Waiter &w : waiters) {
        FarmResponse resp;
        resp.id = w.id;
        resp.key = task->keyStr;
        if (task->failure.isOk()) {
            resp.status = "ok";
            resp.cache = w.state;
            resp.reportBytes = task->report.size();
            respond(w.conn, resp, &task->report);
        } else {
            resp.status = "error";
            resp.code = errorCodeName(task->failure.code());
            resp.message = task->failure.message();
            respond(w.conn, resp);
        }
        w.conn->pending.fetch_sub(1);
    }
}

void
FarmServer::respond(const std::shared_ptr<Connection> &conn,
                    const FarmResponse &resp, const std::string *report)
{
    std::string out = farmResponseLine(resp);
    out += '\n';
    // The header advertises report_bytes only when it is nonzero, so a
    // zero-length report must not emit its terminating newline either —
    // the client would never consume it and the next reply on the
    // connection would desync.
    if (report && !report->empty()) {
        libra_assert(report->find('\n') == std::string::npos,
                     "run report contains a raw newline");
        out += *report;
        out += '\n';
    }
    std::lock_guard<std::mutex> lock(conn->writeMtx);
    if (!conn->open)
        return; // client went away; journaled work still completes
    std::size_t sent = 0;
    while (sent < out.size()) {
        const ssize_t n = ::send(conn->fd, out.data() + sent,
                                 out.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            warn("farm: dropping response for '", resp.id,
                 "': client connection lost");
            conn->open = false;
            return;
        }
        sent += static_cast<std::size_t>(n);
    }
}

} // namespace libra
