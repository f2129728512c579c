/**
 * @file
 * Sim-farm CLI (DESIGN.md §12): daemon and client in one binary.
 *
 * Server:
 *   libra_farm --serve --socket farm.sock --cache-dir cache \
 *              [--farm-journal farm.journal] [--farm-workers N]    \
 *              [--max-queue N] [--client-quota N]                  \
 *              [--cache-max-entries N] [--deadline-ms N]           \
 *              [--retries N] [--backoff-ms N] [--quarantine N]
 *   Runs until a client sends a shutdown request. kill -9 is safe:
 *   journaled requests are recovered into the cache at the next start.
 *
 * Client (default mode):
 *   libra_farm --socket farm.sock --benchmark CCS                  \
 *              [--width W --height H --frames N --first-frame F]   \
 *              [--config SPEC] [--figure TAG]                      \
 *              [--id TAG] [--out report.json]                      \
 *              [--op simulate|ping|stats|shutdown]                 \
 *              [--expect-cache hit|miss|coalesced]
 *
 * The reply header goes to stderr; the report JSON goes to --out (or
 * stdout). Exit codes: 0 success, 1 usage/transport failure, 2 the
 * server answered error/rejected, 3 --expect-cache mismatch (CI uses
 * this to assert that a repeated request was a cache hit).
 */

#include <cstdio>
#include <string>

#include "common/cli.hh"
#include "common/log.hh"
#include "farm/farm_client.hh"
#include "farm/farm_protocol.hh"
#include "farm/farm_server.hh"
#include "trace/json.hh"

using namespace libra;

namespace
{

/** Serve simulation requests until a client sends a shutdown request
 *  (or the process is killed — the journal makes that safe). */
int
serve(const CliArgs &args)
{
    FarmOptions farm;
    farm.socketPath = args.get("socket", "libra_farm.sock");
    farm.cacheDir = args.get("cache-dir", "farm_cache");
    farm.journalPath = args.get("farm-journal", "");
    farm.workers = static_cast<unsigned>(args.getUint("farm-workers", 1));
    farm.maxQueue =
        static_cast<std::uint32_t>(args.getUint("max-queue", 64));
    farm.clientQuota =
        static_cast<std::uint32_t>(args.getUint("client-quota", 16));
    farm.cacheMaxEntries = args.getUint("cache-max-entries", 0);
    farm.deadlineMs = args.getUint("deadline-ms", 0);
    farm.maxRetries =
        static_cast<std::uint32_t>(args.getUint("retries", 0));
    farm.backoffMs = args.getUint("backoff-ms", 100);
    farm.quarantineThreshold =
        static_cast<std::uint32_t>(args.getUint("quarantine", 0));
    Result<std::unique_ptr<FarmServer>> server =
        FarmServer::start(std::move(farm));
    if (!server.isOk())
        fatal("--serve: ", server.status().toString());
    (*server)->wait();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> known{
        // server mode
        "serve", "socket", "cache-dir", "farm-journal", "farm-workers",
        "max-queue", "client-quota", "cache-max-entries", "deadline-ms",
        "retries", "backoff-ms", "quarantine",
        // client mode
        "op", "benchmark", "width", "height", "frames", "first-frame",
        "config", "figure", "id", "out", "expect-cache"};
    const CliArgs args(argc, argv, known);

    if (args.getBool("serve"))
        return serve(args);

    FarmRequest req;
    const std::string op = args.get("op", "simulate");
    if (op == "simulate") {
        req.op = FarmOp::Simulate;
    } else if (op == "ping") {
        req.op = FarmOp::Ping;
    } else if (op == "stats") {
        req.op = FarmOp::Stats;
    } else if (op == "shutdown") {
        req.op = FarmOp::Shutdown;
    } else {
        fatal("--op must be simulate|ping|stats|shutdown, got '", op,
              "'");
    }
    req.id = args.get("id", "");
    if (req.op == FarmOp::Simulate) {
        req.benchmark = args.get("benchmark", "");
        if (req.benchmark.empty())
            fatal("--benchmark is required for simulate requests");
        req.width =
            static_cast<std::uint32_t>(args.getUint("width", req.width));
        req.height = static_cast<std::uint32_t>(
            args.getUint("height", req.height));
        req.frames = static_cast<std::uint32_t>(
            args.getUint("frames", req.frames));
        req.firstFrame = static_cast<std::uint32_t>(
            args.getUint("first-frame", req.firstFrame));
        req.config = args.get("config", req.config);
        req.figure = args.get("figure", "");
    }

    Result<FarmClient> client =
        FarmClient::connect(args.get("socket", "libra_farm.sock"));
    if (!client.isOk())
        fatal(client.status().toString());
    Result<FarmReply> reply = client->call(req);
    if (!reply.isOk())
        fatal(reply.status().toString());

    const FarmResponse &h = reply->header;
    std::fprintf(stderr, "libra_farm: status=%s", h.status.c_str());
    if (h.cache != FarmCacheState::None)
        std::fprintf(stderr, " cache=%s", farmCacheStateName(h.cache));
    if (!h.key.empty())
        std::fprintf(stderr, " key=%s", h.key.c_str());
    if (!h.code.empty())
        std::fprintf(stderr, " code=%s", h.code.c_str());
    if (!h.message.empty())
        std::fprintf(stderr, " message=\"%s\"", h.message.c_str());
    std::fprintf(stderr, "\n");

    if (!h.ok())
        return 2;

    if (!h.payload.empty())
        std::printf("%s\n", h.payload.c_str());
    if (!reply->report.empty()) {
        const std::string out = args.get("out", "");
        if (out.empty()) {
            std::fwrite(reply->report.data(), 1, reply->report.size(),
                        stdout);
            std::fputc('\n', stdout);
        } else if (Status st = writeTextFile(out, reply->report);
                   !st.isOk()) {
            fatal("--out: ", st.toString());
        }
    }

    if (const std::string expect = args.get("expect-cache", "");
        !expect.empty() && expect != farmCacheStateName(h.cache)) {
        std::fprintf(stderr, "libra_farm: expected cache=%s, got %s\n",
                     expect.c_str(), farmCacheStateName(h.cache));
        return 3;
    }
    return 0;
}
