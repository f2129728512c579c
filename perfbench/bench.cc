#include "bench.hh"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>

#include "common/log.hh"
#include "gpu/policy_registry.hh"

namespace perfbench
{

using namespace libra;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec)
            + static_cast<double>(tv.tv_usec) / 1e6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

namespace
{

std::string
formatDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
Report::set(const std::string &name, double value)
{
    values[name] = value;
}

void
Report::exact(const std::string &name, std::uint64_t value)
{
    set(name, static_cast<double>(value));
    exactText[name] = std::to_string(value);
}

void
Report::exact(const std::string &name, double value)
{
    set(name, value);
    exactText[name] = formatDouble(value);
}

void
Report::digest(const std::string &name, std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "fnv1a:%016" PRIx64, value);
    exactText[name] = buf;
}

void
Report::repetition(double wall_s, const std::vector<double> &request_ms)
{
    std::string line = formatDouble(wall_s);
    for (const double ms : request_ms)
        line += " " + formatDouble(ms);
    repetitions.push_back(std::move(line));
}

void
Report::note(const std::string &name, double value,
             const std::string &unit)
{
    notes[name] = formatDouble(value) + " " + unit;
}

bool
Report::op(bool ok, const std::string &key)
{
    ++nAttempted;
    if (!ok) {
        ++nFailed;
        std::fprintf(stderr, "FAILED: %s\n", key.c_str());
    }
    return ok;
}

void
Report::print() const
{
    for (const auto &[name, value] : values) {
        std::printf("metric %s %s\n", name.c_str(),
                    formatDouble(value).c_str());
    }
    for (const auto &[name, text] : notes)
        std::printf("note %s %s\n", name.c_str(), text.c_str());
    std::printf("setup");
    for (const double s : setupSeconds)
        std::printf(" %s", formatDouble(s).c_str());
    std::printf("\n");
    for (const std::string &line : repetitions)
        std::printf("repetition %s\n", line.c_str());
    std::printf("peak_rss_mb %s\n", formatDouble(peakRssMb()).c_str());
    std::printf("--- exact counts ---\n");
    for (const auto &[name, text] : exactText)
        std::printf("exact %s %s\n", name.c_str(), text.c_str());
    std::printf("--- end exact counts ---\n");
    std::printf("operations %" PRIu64 " %" PRIu64 "\n", nAttempted,
                nFailed);
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double pos = p / 100.0 * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
counterDump(const RunResult &r)
{
    std::string dump;
    for (const auto &[name, value] : r.counters)
        dump += name + "=" + std::to_string(value) + "\n";
    for (const FrameStats &fs : r.frames) {
        dump += "frame" + std::to_string(fs.frameIndex) + ".cycles="
            + std::to_string(fs.totalCycles) + "\n";
    }
    return dump;
}

GpuConfig
machineConfig(std::uint32_t width, std::uint32_t height,
              const char *policy)
{
    GpuConfig cfg;
    cfg.rasterUnits = 2;
    cfg.coresPerRu = 4;
    cfg.screenWidth = width;
    cfg.screenHeight = height;
    if (Status st = applyPolicy(cfg, policy); !st.isOk())
        fatal("policy ", policy, ": ", st.toString());
    return cfg;
}

void
reportModelCounts(Report &rep, const std::vector<const RunResult *> &runs)
{
    // One RunResult holding every frame and the summed counters, so the
    // model's own request-weighted averages apply across runs.
    RunResult all;
    std::uint64_t steady_cycles = 0, quads = 0, warps = 0;
    std::uint64_t ranking = 0, re_skipped = 0;
    for (const RunResult *r : runs) {
        for (std::size_t i = 0; i < r->frames.size(); ++i) {
            const FrameStats &fs = r->frames[i];
            if (i > 0)
                steady_cycles += fs.totalCycles;
            quads += fs.quads;
            warps += fs.warps;
            ranking += fs.rankingCycles;
            re_skipped += fs.reTilesSkipped;
            all.frames.push_back(fs);
        }
        for (const auto &[name, value] : r->counters)
            all.counters[name] += value;
    }
    const auto sum = [&all](const std::string &prefix,
                            const std::string &suffix) {
        std::uint64_t total = 0;
        for (const auto &[name, value] : all.counters) {
            if (name.rfind(prefix, 0) == 0 && name.size() >= suffix.size()
                && name.compare(name.size() - suffix.size(),
                                suffix.size(), suffix) == 0) {
                total += value;
            }
        }
        return total;
    };
    const auto ratio = [](std::uint64_t num, std::uint64_t den) {
        return den == 0 ? 0.0
                        : static_cast<double>(num)
                / static_cast<double>(den);
    };

    std::uint64_t tex_accesses = 0, dram_reads = 0, dram_writes = 0;
    for (const FrameStats &fs : all.frames) {
        tex_accesses += fs.textureL1Accesses;
        dram_reads += fs.dramReads;
        dram_writes += fs.dramWrites;
    }
    rep.exact("gpu.model_cycles", steady_cycles);
    rep.exact("gpu.quads", quads);
    rep.exact("gpu.warps", warps);
    rep.exact("core.ranking_cycles", ranking);
    rep.exact("core.re_tiles_skipped", re_skipped);

    rep.exact("cache.tex_l1_accesses", tex_accesses);
    rep.exact("cache.tex_l1_hit_ratio", all.textureHitRatio());
    rep.exact("cache.tex_l1_mshr_coalesced",
              sum("gpu.tex_l1_", ".mshr_coalesced"));
    const std::uint64_t l2_hits = sum("gpu.l2.", ".hits");
    rep.exact("cache.l2_accesses", sum("gpu.l2.", ".read_accesses")
                                       + sum("gpu.l2.", ".write_accesses"));
    rep.exact("cache.l2_hit_ratio",
              ratio(l2_hits, l2_hits + sum("gpu.l2.", ".misses")));
    rep.exact("cache.tex_latency_cycles", all.avgTextureLatency());

    rep.exact("dram.reads", dram_reads);
    rep.exact("dram.writes", dram_writes);
    const std::uint64_t row_hits = sum("gpu.dram.", ".row_hits");
    rep.exact("dram.row_hit_ratio",
              ratio(row_hits, row_hits + sum("gpu.dram.", ".row_misses")
                                  + sum("gpu.dram.", ".row_conflicts")));
    rep.exact("dram.read_latency_cycles", all.avgDramReadLatency());
}

} // namespace perfbench
