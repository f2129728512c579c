/**
 * @file
 * farm: an in-process FarmServer (2 workers, a journal, an empty cache
 * directory) under two closed-loop FarmClient connections.
 *
 * Each connection owns a disjoint set of keys (benchmark title x first
 * frame; 256x128, 2 frames, `libra:2x4`) and sends a seeded stream in
 * which every key appears at least once, so the first request of a key
 * misses and every later one hits: the hit/miss split is exact and
 * nothing coalesces by timing. Hits never run the simulator (protocol,
 * result cache and journal cost only); misses are small simulations.
 *
 * The stream is replayed in rounds, each against a freshly started
 * server with an empty cache, until the time budget is spent. One round
 * is one repetition: every request's observed latency, and the wall
 * time in which the two connections sent their streams.
 *
 * Output checks: a repeated key must get the bytes of its first reply,
 * in every round; for a seeded sample of keys the farm's bytes must
 * equal a direct runBenchmark -> runReportJson run; every key must then
 * be readable through ResultCache::lookup with the same bytes.
 */

#include <filesystem>
#include <thread>
#include <unordered_map>

#include "bench.hh"
#include "check/result_cache.hh"
#include "check/snapshot.hh"
#include "common/rng.hh"
#include "farm/farm_client.hh"
#include "farm/farm_server.hh"
#include "spans.hh"
#include "trace/run_report.hh"
#include "workload/benchmarks.hh"

namespace perfbench
{

using namespace libra;
namespace fs = std::filesystem;

namespace
{

constexpr std::uint32_t kWidth = 256;
constexpr std::uint32_t kHeight = 128;
constexpr std::uint32_t kFrames = 2;
constexpr const char *kSpec = "libra:2x4";
constexpr unsigned kWorkers = 2;
constexpr std::uint32_t kConnections = 2;
constexpr std::size_t kRequestsPerKey = 8;
constexpr int kStartsPerRound = 5;
constexpr std::size_t kDirectChecks = 4;

struct Key
{
    const BenchmarkSpec *spec;
    std::uint32_t firstFrame;

    std::string
    str() const
    {
        return spec->abbrev + "@" + std::to_string(firstFrame);
    }
};

/** What one client connection saw. */
struct ConnResult
{
    std::vector<double> ms; //!< per request, in stream order
    std::vector<bool> hit;  //!< per request: served from the cache
    std::vector<std::string> failures;
    std::uint64_t okRequests = 0;
    std::unordered_map<std::string, std::uint64_t> replyHash;
    std::unordered_map<std::string, std::string> sampleBytes;
};

void
runConnection(const std::string &socket, int conn,
              const std::vector<Key> &stream,
              const std::unordered_map<std::string, bool> &sampled,
              ConnResult &out)
{
    Span root("bench.run");
    Result<FarmClient> client = FarmClient::connect(socket);
    if (!client.isOk()) {
        out.failures.push_back("connection " + std::to_string(conn) + ": "
                               + client.status().toString());
        return;
    }
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const Key &key = stream[i];
        FarmRequest req;
        req.id = "c" + std::to_string(conn) + "-" + std::to_string(i);
        req.benchmark = key.spec->abbrev;
        req.width = kWidth;
        req.height = kHeight;
        req.frames = kFrames;
        req.firstFrame = key.firstFrame;
        req.config = kSpec;

        const Clock::time_point t0 = Clock::now();
        Result<FarmReply> reply = [&] {
            Span s("farm.FarmClient.call");
            return client->call(req);
        }();
        out.ms.push_back(since(t0) * 1e3);
        out.hit.push_back(reply.isOk()
                          && reply->header.cache == FarmCacheState::Hit);
        if (!reply.isOk() || !reply->header.ok()) {
            out.failures.push_back(
                "request " + req.id + " [" + key.str() + "]: "
                + (reply.isOk() ? reply->header.status + " "
                           + reply->header.message
                                : reply.status().toString()));
            continue;
        }
        const bool hit = out.hit.back();
        const std::uint64_t hash = fnv1a(reply->report);
        const auto [it, fresh] = out.replyHash.emplace(key.str(), hash);
        if (fresh == hit || it->second != hash) {
            out.failures.push_back("request " + req.id + " [" + key.str()
                                   + "]: unexpected "
                                   + farmCacheStateName(
                                       reply->header.cache)
                                   + " reply or bytes differ from the "
                                     "key's first reply");
        } else {
            ++out.okRequests;
        }
        if (fresh && sampled.count(key.str()))
            out.sampleBytes[key.str()] = reply->report;
    }
}

std::unique_ptr<FarmServer>
startServer(const fs::path &dir, Report &rep, double &seconds)
{
    fs::create_directories(dir);
    FarmOptions fo;
    fo.socketPath = (dir / "farm.sock").string();
    fo.cacheDir = (dir / "cache").string();
    fo.journalPath = (dir / "journal.ndjson").string();
    fo.workers = kWorkers;
    const Clock::time_point t0 = Clock::now();
    Result<std::unique_ptr<FarmServer>> srv = [&] {
        Span s("farm.FarmServer.start");
        return FarmServer::start(fo);
    }();
    seconds = since(t0);
    if (!rep.op(srv.isOk(), "FarmServer::start in " + dir.string() + ": "
                                + (srv.isOk() ? ""
                                              : srv.status().toString())))
        return nullptr;
    return std::move(*srv);
}

/** Direct runs of the sampled keys and a ResultCache read of every
 *  key, against the cache directory of one finished round. */
void
verifyRound(const fs::path &dir, const std::vector<std::vector<Key>> &keys,
            const std::vector<Key> &sample,
            const std::unordered_map<std::string, std::string> &sample_bytes,
            const std::unordered_map<std::string, std::uint64_t> &reply_hash,
            Report &rep)
{
    Span root("bench.verify");
    const GpuConfig cfg = machineConfig(kWidth, kHeight, "libra");
    for (const Key &k : sample) {
        Result<RunResult> run = [&] {
            Span s("gpu.runBenchmark");
            return runBenchmark(*k.spec, cfg, kFrames, k.firstFrame);
        }();
        std::string direct;
        if (run.isOk()) {
            Span s("trace.runReportJson");
            direct = runReportJson(*run);
        }
        const auto it = sample_bytes.find(k.str());
        rep.op(run.isOk() && it != sample_bytes.end()
                   && it->second == direct,
               "farm reply for " + k.str()
                   + " differs from a direct runBenchmark run");
    }

    Result<ResultCache> cache = ResultCache::open((dir / "cache").string());
    if (!rep.op(cache.isOk(), "ResultCache::open " + dir.string()))
        return;
    std::vector<double> lookup_us;
    for (const std::vector<Key> &ks : keys) {
        for (const Key &k : ks) {
            const ResultCacheKey key{
                cfg.configHash(),
                snapshotSceneHash(k.spec->abbrev, kWidth, kHeight),
                kResultCacheCodeVersion, kFrames, k.firstFrame};
            const Clock::time_point t0 = Clock::now();
            Result<std::string> entry = [&] {
                Span s("check.ResultCache.lookup");
                return cache->lookup(key);
            }();
            lookup_us.push_back(since(t0) * 1e6);
            const auto it = reply_hash.find(k.str());
            rep.op(entry.isOk() && it != reply_hash.end()
                       && fnv1a(*entry) == it->second,
                   "result cache entry for " + k.str());
        }
    }
    rep.set("check.cache_lookup_us", percentile(lookup_us, 50));
    Result<std::vector<std::string>> entries = cache->entries();
    rep.exact("check.cache_entries",
              static_cast<std::uint64_t>(entries.isOk() ? entries->size()
                                                        : 0));
}

} // namespace

void
runFarm(const Options &opt, Report &rep)
{
    const fs::path work(opt.workDir);
    Rng rng(opt.seed);

    // Key sets: every title once, at a seeded first frame (0 or 1). The
    // suite lists titles in pairs of like cost (memory-intensive, then
    // compute-intensive), and each pair is split between the two
    // connections, the seed picking which way, so they never share a key
    // and carry the same mix of simulation costs.
    static_assert(kConnections == 2, "keys are dealt in pairs");
    const std::vector<BenchmarkSpec> &suite = benchmarkSuite();
    std::vector<std::vector<Key>> keys(kConnections);
    for (std::size_t i = 0; i + 1 < suite.size(); i += 2) {
        const std::size_t flip = rng.next() & 1;
        for (std::uint32_t c = 0; c < kConnections; ++c) {
            keys[c].push_back(Key{&suite[i + (c ^ flip)],
                                  static_cast<std::uint32_t>(rng.next() & 1)});
        }
    }
    const std::size_t keys_per_conn = keys[0].size();

    // Streams: every key once plus seeded repeats, shuffled.
    std::vector<std::vector<Key>> streams(kConnections);
    std::size_t requests = 0;
    for (std::uint32_t c = 0; c < kConnections; ++c) {
        std::vector<Key> &s = streams[c];
        s = keys[c];
        while (s.size() < keys_per_conn * kRequestsPerKey)
            s.push_back(keys[c][rng.next() % keys_per_conn]);
        for (std::size_t i = s.size() - 1; i > 0; --i)
            std::swap(s[i], s[rng.next() % (i + 1)]);
        requests += s.size();
    }
    std::unordered_map<std::string, bool> sampled;
    std::vector<Key> sample;
    while (sample.size() < kDirectChecks) {
        const Key &k = keys[sample.size() % kConnections]
                           [rng.next() % keys_per_conn];
        if (sampled.emplace(k.str(), true).second)
            sample.push_back(k);
    }

    std::vector<double> hit_ms, miss_ms, stream_s;
    std::unordered_map<std::string, std::uint64_t> golden;
    int rounds = 0;
    repeatWithin(opt.budget, [&] {
        const fs::path round_dir = work / ("round" + std::to_string(rounds));

        // Set-up: FarmServer::start on an empty cache directory; the
        // last server of the round serves the stream.
        std::unique_ptr<FarmServer> server;
        fs::path dir;
        for (int i = 0; i < kStartsPerRound; ++i) {
            server.reset();
            Span root("bench.setup");
            dir = round_dir / ("server" + std::to_string(i));
            double s = 0.0;
            server = startServer(dir, rep, s);
            if (!server)
                return false;
            rep.setup(s);
        }

        std::vector<ConnResult> conns(kConnections);
        const Clock::time_point t0 = Clock::now();
        {
            std::vector<std::thread> threads;
            for (std::uint32_t c = 0; c < kConnections; ++c) {
                threads.emplace_back(runConnection, server->socketPath(), c,
                                     std::cref(streams[c]),
                                     std::cref(sampled),
                                     std::ref(conns[c]));
            }
            for (std::thread &t : threads)
                t.join();
        }
        const double wall = since(t0);
        const FarmStats stats = server->stats();
        server.reset();

        std::unordered_map<std::string, std::uint64_t> reply_hash;
        std::unordered_map<std::string, std::string> sample_bytes;
        std::vector<double> round_ms;
        for (std::uint32_t c = 0; c < kConnections; ++c) {
            ConnResult &cr = conns[c];
            for (const std::string &f : cr.failures)
                rep.op(false, "farm round " + std::to_string(rounds) + " "
                                  + f);
            rep.passed(cr.okRequests);
            if (cr.ms.size() != streams[c].size())
                return false; // connection lost; its failure is recorded
            for (std::size_t i = 0; i < cr.ms.size(); ++i) {
                round_ms.push_back(cr.ms[i]);
                (cr.hit[i] ? hit_ms : miss_ms).push_back(cr.ms[i]);
            }
            reply_hash.insert(cr.replyHash.begin(), cr.replyHash.end());
            sample_bytes.merge(cr.sampleBytes);
        }
        rep.repetition(wall, round_ms);
        stream_s.push_back(wall);
        rep.op(stats.simulations == kConnections * keys_per_conn
                   && stats.cacheHits == requests - stats.simulations
                   && stats.coalesced == 0 && stats.rejected == 0,
               "farm round " + std::to_string(rounds) + " served "
                   + std::to_string(stats.cacheHits) + " hits and "
                   + std::to_string(stats.simulations)
                   + " misses, not the stream's split");
        if (rounds == 0) {
            golden = reply_hash;
            rep.exact("farm.requests", static_cast<std::uint64_t>(requests));
            rep.exact("farm.hits", stats.cacheHits);
            rep.exact("farm.misses", stats.simulations);
            rep.set("farm.coalesced", static_cast<double>(stats.coalesced));
            rep.set("farm.rejected", static_cast<double>(stats.rejected));
            std::error_code ec;
            const auto journal = fs::file_size(dir / "journal.ndjson", ec);
            rep.set("farm.journal_bytes",
                    ec ? 0.0 : static_cast<double>(journal));
            verifyRound(dir, keys, sample, sample_bytes, reply_hash, rep);
        } else {
            rep.op(reply_hash == golden,
                   "farm round " + std::to_string(rounds)
                       + " replies differ from the first round's");
        }
        std::error_code ec;
        fs::remove_all(round_dir, ec);
        ++rounds;
        return true;
    });
    if (rounds == 0)
        return;

    const std::map<std::string, std::uint64_t> by_key(golden.begin(),
                                                      golden.end());
    std::string replies;
    for (const auto &[key, hash] : by_key)
        replies += key + "=" + std::to_string(hash) + "\n";
    rep.digest("farm.replies", fnv1a(replies));
    rep.note("rounds", rounds, "count");
    rep.note("stream_s", percentile(stream_s, 50), "s");
    rep.set("farm.hit_p50_ms", percentile(hit_ms, 50));
    rep.set("farm.hit_p95_ms", percentile(hit_ms, 95));
    rep.set("farm.miss_p50_ms", percentile(miss_ms, 50));
    rep.set("farm.miss_p95_ms", percentile(miss_ms, 95));
}

} // namespace perfbench
