/**
 * @file
 * End-to-end sim-farm smoke: in one process, drive a real FarmServer
 * over its unix socket through the whole contract —
 *
 *   1. cold miss, report byte-identical to a direct cold run;
 *   2. repeated request is a cache hit with byte-identical payload;
 *   3. concurrent identical requests coalesce onto one simulation and
 *      all receive the same bytes;
 *   4. stats/ping ops answer;
 *   5. bad requests get attributable errors, not hangs;
 *   6. a journaled-but-uncompleted request is recovered into the cache
 *      on restart (the kill -9 path, minus the kill) and a torn
 *      trailing journal line is tolerated;
 *   7. a shutdown request stops the server;
 *   8. a failed task counts as one failure however many coalesced
 *      waiters hear about it;
 *   9. the quarantine counts permanent failures only: a request that
 *      blows its deadline (transient) never blocks its config;
 *  10. a request line longer than kFarmMaxRequestLine is refused with
 *      an error and its connection closed, not buffered without bound.
 *
 * Exits nonzero with a message on the first violated expectation.
 * ctest runs it as FarmSmoke.EndToEnd; the out-of-process half (real
 * kill -9 against libra_farm --serve) lives in the CI workflow script.
 */

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "check/result_cache.hh"
#include "check/snapshot.hh"
#include "farm/farm_client.hh"
#include "farm/farm_server.hh"
#include "gpu/runner.hh"
#include "trace/json.hh"
#include "trace/run_report.hh"
#include "workload/benchmarks.hh"

using namespace libra;

namespace
{

#define SMOKE_CHECK(cond, ...)                                            \
    do {                                                                  \
        if (!(cond)) {                                                    \
            std::fprintf(stderr, "farm_smoke FAIL at %s:%d: %s\n",        \
                         __FILE__, __LINE__, #cond);                      \
            fatal(__VA_ARGS__);                                           \
        }                                                                 \
    } while (0)

/** Direct (farm-less) run of a request — the byte-identity reference. */
std::string
coldReference(const FarmRequest &req)
{
    const BenchmarkSpec &spec = findBenchmark(req.benchmark);
    Result<GpuConfig> cfg = farmRequestConfig(req);
    if (!cfg.isOk())
        fatal("cold reference config: ", cfg.status().toString());
    Result<RunResult> run =
        runBenchmark(spec, *cfg, req.frames, req.firstFrame);
    if (!run.isOk())
        fatal("cold reference run: ", run.status().toString());
    return runReportJson(*run);
}

FarmRequest
request(const std::string &config, const std::string &id)
{
    FarmRequest req;
    req.id = id;
    req.benchmark = "CCS";
    req.width = 256;
    req.height = 128;
    req.frames = 2;
    req.config = config;
    return req;
}

FarmReply
mustCall(FarmClient &client, const FarmRequest &req)
{
    Result<FarmReply> reply = client.call(req);
    if (!reply.isOk())
        fatal("call '", req.id, "': ", reply.status().toString());
    return std::move(*reply);
}

/** What a raw connection got back after sending one unterminated line. */
struct RawExchange
{
    std::string received; //!< every byte read before EOF or timeout
    bool closedByServer = false; //!< reading ended at EOF
};

/**
 * Connect to @p path, send @p bytes bytes with no newline, then read
 * until the server closes the connection. A 10 s receive timeout turns
 * a server that keeps waiting for the newline into closedByServer ==
 * false instead of a hang.
 */
RawExchange
sendUnterminatedLine(const std::string &path, std::size_t bytes)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        fatal("raw socket: ", std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0)
        fatal("raw connect: ", std::strerror(errno));
    const timeval timeout{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

    const std::string line(bytes, 'x');
    for (std::size_t sent = 0; sent < line.size();) {
        const ssize_t n = ::send(fd, line.data() + sent,
                                 line.size() - sent, MSG_NOSIGNAL);
        if (n <= 0)
            fatal("raw send: ", std::strerror(errno));
        sent += static_cast<std::size_t>(n);
    }

    RawExchange out;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        out.received.append(buf, static_cast<std::size_t>(n));
    out.closedByServer = n == 0;
    ::close(fd);
    return out;
}

} // namespace

int
main()
{
    namespace fs = std::filesystem;
    const std::string base = "farm_smoke_out";
    fs::remove_all(base);
    fs::create_directories(base);
    const std::string socket = base + "/farm.sock";
    const std::string cacheDir = base + "/cache";
    const std::string journal = base + "/farm.journal";

    FarmOptions opt;
    opt.socketPath = socket;
    opt.cacheDir = cacheDir;
    opt.journalPath = journal;
    opt.workers = 2;

    Result<std::unique_ptr<FarmServer>> server = FarmServer::start(opt);
    if (!server.isOk())
        fatal("start: ", server.status().toString());

    const FarmRequest reqA = request("baseline:2", "a");
    const std::string refA = coldReference(reqA);

    Result<FarmClient> client = FarmClient::connect(socket);
    if (!client.isOk())
        fatal("connect: ", client.status().toString());

    // 1. Cold miss, byte-identical to the direct run.
    FarmReply first = mustCall(*client, reqA);
    SMOKE_CHECK(first.header.ok(), "first request failed: ",
                first.header.message);
    SMOKE_CHECK(first.header.cache == FarmCacheState::Miss,
                "first request should be a miss, was ",
                farmCacheStateName(first.header.cache));
    SMOKE_CHECK(first.report == refA,
                "miss report differs from direct run (",
                first.report.size(), " vs ", refA.size(), " bytes)");

    // 2. Identical request: cache hit, byte-identical.
    FarmReply second = mustCall(*client, reqA);
    SMOKE_CHECK(second.header.cache == FarmCacheState::Hit,
                "repeat request should hit, was ",
                farmCacheStateName(second.header.cache));
    SMOKE_CHECK(second.report == first.report,
                "cache hit is not byte-identical to the miss");

    // 3. Concurrent identical requests: one simulation, same bytes.
    // (Not ptr:1x2 — a 1-RU ptr config hashes identically to baseline:2
    // and would be a plain cache hit.)
    const FarmRequest reqB = request("libra:2x2", "b");
    FarmReply replyB1, replyB2;
    {
        std::thread other([&] {
            Result<FarmClient> c2 = FarmClient::connect(socket);
            if (!c2.isOk())
                fatal("connect(2): ", c2.status().toString());
            replyB2 = mustCall(*c2, reqB);
        });
        Result<FarmClient> c1 = FarmClient::connect(socket);
        if (!c1.isOk())
            fatal("connect(1): ", c1.status().toString());
        replyB1 = mustCall(*c1, reqB);
        other.join();
    }
    SMOKE_CHECK(replyB1.header.ok() && replyB2.header.ok(),
                "concurrent requests failed");
    SMOKE_CHECK(replyB1.report == replyB2.report,
                "concurrent identical requests got different bytes");
    SMOKE_CHECK(replyB1.report == coldReference(reqB),
                "coalesced report differs from direct run");

    // 4. Ping and stats.
    FarmRequest ping;
    ping.op = FarmOp::Ping;
    ping.id = "p";
    SMOKE_CHECK(mustCall(*client, ping).header.ok(), "ping failed");
    FarmRequest statsReq;
    statsReq.op = FarmOp::Stats;
    FarmReply statsReply = mustCall(*client, statsReq);
    SMOKE_CHECK(statsReply.header.ok(), "stats failed");
    Result<JsonValue> stats = parseJson(statsReply.header.payload);
    SMOKE_CHECK(stats.isOk() && stats->isObject(),
                "stats payload is not a JSON object: ",
                statsReply.header.payload);
    const JsonValue *hits = stats->find("cache_hits");
    const JsonValue *sims = stats->find("simulations");
    SMOKE_CHECK(hits && hits->number >= 1, "expected >= 1 cache hit");
    SMOKE_CHECK(sims && sims->number >= 2,
                "expected >= 2 simulations, payload: ",
                statsReply.header.payload);

    // 5. Errors are attributable, not fatal to the server.
    FarmRequest bad = request("baseline:2", "bad-bench");
    bad.benchmark = "NOPE";
    FarmReply badReply = mustCall(*client, bad);
    SMOKE_CHECK(badReply.header.status == "error",
                "unknown benchmark should answer error");
    FarmRequest badCfg = request("warp-drive", "bad-config");
    FarmReply badCfgReply = mustCall(*client, badCfg);
    SMOKE_CHECK(badCfgReply.header.status == "error",
                "unknown config spec should answer error");
    SMOKE_CHECK(mustCall(*client, ping).header.ok(),
                "server wedged after bad requests");

    // 5b. A zero-length cached report must not desync the connection:
    //     its header advertises no report_bytes, so no stray report
    //     newline may follow it either. Plant an empty entry under the
    //     key the server computes and read it back.
    {
        FarmRequest reqE = request("baseline:2", "empty");
        reqE.width = 128; // distinct scene hash, distinct cache key
        reqE.height = 64;
        const BenchmarkSpec &spec = findBenchmark(reqE.benchmark);
        Result<GpuConfig> cfg = farmRequestConfig(reqE);
        SMOKE_CHECK(cfg.isOk(), "empty-report config: ",
                    cfg.status().toString());
        const ResultCacheKey key{
            cfg->configHash(),
            snapshotSceneHash(spec.abbrev, reqE.width, reqE.height),
            kResultCacheCodeVersion, reqE.frames, reqE.firstFrame};
        Result<ResultCache> side = ResultCache::open(cacheDir);
        SMOKE_CHECK(side.isOk(), "side cache open: ",
                    side.status().toString());
        SMOKE_CHECK(side->store(key, "").isOk(),
                    "cannot store empty entry");
        FarmReply emptyHit = mustCall(*client, reqE);
        SMOKE_CHECK(emptyHit.header.ok()
                        && emptyHit.header.cache == FarmCacheState::Hit
                        && emptyHit.header.reportBytes == 0
                        && emptyHit.report.empty(),
                    "zero-length cached report not served as an empty "
                    "hit");
        SMOKE_CHECK(mustCall(*client, ping).header.ok(),
                    "connection desynced after zero-length report");
    }

    // 5c. A request line is bounded: one byte past kFarmMaxRequestLine
    //     with no newline gets one "invalid argument" reply naming the
    //     limit and a closed connection; a fresh connection is served.
    {
        const RawExchange flood =
            sendUnterminatedLine(socket, kFarmMaxRequestLine + 1);
        const std::string &got = flood.received;
        SMOKE_CHECK(!got.empty() && got.find('\n') == got.size() - 1,
                    "over-long line should get one reply line, got ",
                    got.size(), " bytes: ", got);
        Result<FarmResponse> refused =
            parseFarmResponse(got.substr(0, got.size() - 1));
        SMOKE_CHECK(refused.isOk() && refused->status == "error"
                        && refused->code
                            == errorCodeName(ErrorCode::InvalidArgument)
                        && refused->message.find(std::to_string(
                               kFarmMaxRequestLine))
                            != std::string::npos,
                    "over-long line should answer invalid argument "
                    "naming the limit, got: ", got);
        SMOKE_CHECK(flood.closedByServer,
                    "server kept the over-long line's connection open");
        Result<FarmClient> fresh = FarmClient::connect(socket);
        if (!fresh.isOk())
            fatal("connect(fresh): ", fresh.status().toString());
        SMOKE_CHECK(mustCall(*fresh, ping).header.ok(),
                    "server wedged after refusing an over-long line");
    }

    // 6. Recovery: stop the server, fabricate an accepted-but-never-
    //    completed journal entry plus a torn trailing line, restart.
    *client = FarmClient(); // disconnect before stopping the server
    server->reset();

    const FarmRequest reqC = request("libra:1x2", "c");
    {
        JsonWriter w;
        w.beginObject();
        w.key("schema");
        w.value(kFarmJournalSchema);
        w.key("key");
        w.value("smoke-recovery");
        w.key("request_line");
        w.value(farmRequestLine(reqC));
        w.endObject();
        std::FILE *f = std::fopen(journal.c_str(), "ab");
        SMOKE_CHECK(f != nullptr, "cannot append to journal");
        const std::string line = w.str() + "\n";
        std::fwrite(line.data(), 1, line.size(), f);
        // Torn tail: half a record, no newline — must be discarded.
        std::fwrite(line.data(), 1, line.size() / 2, f);
        std::fclose(f);
    }

    server = FarmServer::start(opt);
    if (!server.isOk())
        fatal("restart: ", server.status().toString());
    SMOKE_CHECK((*server)->stats().recovered == 1,
                "restart should recover exactly the journaled request, "
                "recovered=", (*server)->stats().recovered);

    client = FarmClient::connect(socket);
    if (!client.isOk())
        fatal("reconnect: ", client.status().toString());
    FarmReply recovered = mustCall(*client, reqC);
    SMOKE_CHECK(recovered.header.cache == FarmCacheState::Hit,
                "recovered request should be a hit, was ",
                farmCacheStateName(recovered.header.cache));
    SMOKE_CHECK(recovered.report == coldReference(reqC),
                "recovered report differs from direct run");
    // Pre-restart entries survive too (the cache is persistent).
    FarmReply stillThere = mustCall(*client, reqA);
    SMOKE_CHECK(stillThere.header.cache == FarmCacheState::Hit
                    && stillThere.report == refA,
                "pre-restart cache entry lost or changed");

    // 7. Shutdown request stops the server (the client connection is
    //    still open here, so destruction races a reader thread that is
    //    on its way out — the join must not deadlock on connMtx).
    FarmRequest down;
    down.op = FarmOp::Shutdown;
    down.id = "down";
    SMOKE_CHECK(mustCall(*client, down).header.ok(), "shutdown failed");
    (*server)->wait();
    server->reset();

    // 8. A failed task counts as one failure however many coalesced
    //    waiters hear about it. Separate server: a 1 ms deadline makes
    //    every simulation fail, and the retry backoff holds the task
    //    in flight long enough that the concurrent duplicate must
    //    coalesce rather than spawn a second task.
    {
        FarmOptions fopt;
        fopt.socketPath = base + "/fail.sock";
        fopt.cacheDir = base + "/fail.cache";
        fopt.workers = 1;
        fopt.deadlineMs = 1;
        fopt.maxRetries = 1;
        fopt.backoffMs = 500;
        Result<std::unique_ptr<FarmServer>> fsrv =
            FarmServer::start(fopt);
        if (!fsrv.isOk())
            fatal("failure-server start: ", fsrv.status().toString());
        const FarmRequest reqF1 = request("baseline:2", "f1");
        const FarmRequest reqF2 = request("baseline:2", "f2");
        FarmReply replyF1, replyF2;
        std::thread other([&] {
            Result<FarmClient> c2 = FarmClient::connect(fopt.socketPath);
            if (!c2.isOk())
                fatal("connect(f2): ", c2.status().toString());
            replyF2 = mustCall(*c2, reqF2);
        });
        Result<FarmClient> c1 = FarmClient::connect(fopt.socketPath);
        if (!c1.isOk())
            fatal("connect(f1): ", c1.status().toString());
        replyF1 = mustCall(*c1, reqF1);
        other.join();
        SMOKE_CHECK(replyF1.header.status == "error"
                        && replyF2.header.status == "error",
                    "deadline-doomed requests should answer error, got ",
                    replyF1.header.status, " / ", replyF2.header.status);
        const FarmStats fstats = (*fsrv)->stats();
        SMOKE_CHECK(fstats.coalesced == 1,
                    "duplicate request did not coalesce (coalesced=",
                    fstats.coalesced, ")");
        SMOKE_CHECK(fstats.failures == 1,
                    "one failed task with two waiters must count one "
                    "failure, counted ", fstats.failures);
        SMOKE_CHECK(fstats.simulations == 0,
                    "failed tasks must not count as simulations");
        fsrv->reset();
    }

    // 9. Quarantine threshold 1 and a 1 ms deadline: the same request
    //    sent twice must fail twice with the transient deadline code —
    //    a deadline says the host was slow, not that the config is
    //    poisoned, so it must not strike the config.
    {
        FarmOptions qopt;
        qopt.socketPath = base + "/quarantine.sock";
        qopt.cacheDir = base + "/quarantine.cache";
        qopt.workers = 1;
        qopt.deadlineMs = 1;
        qopt.quarantineThreshold = 1;
        Result<std::unique_ptr<FarmServer>> qsrv =
            FarmServer::start(qopt);
        if (!qsrv.isOk())
            fatal("quarantine-server start: ", qsrv.status().toString());
        Result<FarmClient> qc = FarmClient::connect(qopt.socketPath);
        if (!qc.isOk())
            fatal("connect(q): ", qc.status().toString());
        for (const char *id : {"q1", "q2"}) {
            const FarmReply reply = mustCall(*qc, request("baseline:2", id));
            SMOKE_CHECK(reply.header.code
                                == errorCodeName(ErrorCode::DeadlineExceeded)
                            && reply.header.message.find("quarantined")
                                   == std::string::npos,
                        "request ", id, " should fail with deadline "
                        "exceeded, got '", reply.header.code, "': ",
                        reply.header.message);
        }
        qsrv->reset();
    }

    std::printf("farm_smoke: all checks passed\n");
    return 0;
}
