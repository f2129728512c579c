/**
 * @file
 * Compare every tile-scheduling policy on one game: baseline single-RU,
 * PTR with Z-order interleaving, static supertiles of each size,
 * temperature-order without adaptivity, and full LIBRA.
 *
 * Usage:
 *   scheduler_comparison [--benchmark CCS] [--frames 5]
 *                        [--width 960] [--height 544]
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/log.hh"
#include "gpu/runner.hh"
#include "trace/report.hh"

using namespace libra;

namespace
{

struct Entry
{
    const char *name;
    GpuConfig cfg;
};

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv,
                       {"benchmark", "frames", "width", "height"});
    const BenchmarkSpec &spec =
        findBenchmark(args.get("benchmark", "CCS"));
    const auto frames =
        static_cast<std::uint32_t>(args.getUint("frames", 5));
    const auto width =
        static_cast<std::uint32_t>(args.getUint("width", 960));
    const auto height =
        static_cast<std::uint32_t>(args.getUint("height", 544));

    std::vector<Entry> entries;
    entries.push_back({"baseline 1RUx8", GpuConfig::baseline(8)});
    entries.push_back({"PTR 2RUx4 z-order", GpuConfig::ptr(2, 4)});
    for (const std::uint32_t st : {2u, 4u, 8u, 16u}) {
        Entry e{"", GpuConfig::staticSupertile(st)};
        static std::vector<std::string> names; // keep labels alive
        names.push_back("static supertile " + std::to_string(st) + "x"
                        + std::to_string(st));
        e.name = names.back().c_str();
        entries.push_back(e);
    }
    {
        GpuConfig cfg = GpuConfig::libra(2, 4);
        cfg.sched.policy = SchedulerPolicy::TemperatureStatic;
        cfg.sched.staticSupertileSize = 4;
        entries.push_back({"temperature (fixed 4x4)", cfg});
    }
    entries.push_back({"LIBRA (adaptive)", GpuConfig::libra(2, 4)});

    std::printf("benchmark: %s (%s, %s), %u frames at %ux%u\n",
                spec.abbrev.c_str(), spec.title.c_str(),
                genreName(spec.genre), frames, width, height);

    Table table({"policy", "cycles/frame", "speedup", "tex lat",
                 "dram lat", "tex hit", "energy mJ/f"});
    double base_cycles = 0.0;
    for (const auto &entry : entries) {
        GpuConfig cfg = entry.cfg;
        cfg.screenWidth = width;
        cfg.screenHeight = height;
        const Result<RunResult> run = runBenchmark(spec, cfg, frames);
        if (!run.isOk())
            fatal(entry.name, ": ", run.status().toString());
        const RunResult &r = *run;
        const double cyc = static_cast<double>(r.totalCycles()) / frames;
        if (base_cycles == 0.0)
            base_cycles = cyc;
        table.addRow({entry.name, Table::num(cyc, 0),
                      Table::num(base_cycles / cyc, 3),
                      Table::num(r.avgTextureLatency(), 1),
                      Table::num(r.avgDramReadLatency(), 1),
                      Table::pct(r.textureHitRatio()),
                      Table::num(r.totalEnergyMj() / frames, 2)});
    }
    table.print();
    return 0;
}
