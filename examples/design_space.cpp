/**
 * @file
 * Design-space exploration with the public API: sweep Raster Unit
 * count, cores per RU, texture-L1 size and DRAM channels for one game
 * — the experiment an architect would run before committing to a
 * configuration.
 *
 * Usage:
 *   design_space [--benchmark CCS] [--frames 4] [--width 960]
 *                [--height 544]
 */

#include <cstdio>
#include <utility>

#include "common/cli.hh"
#include "common/log.hh"
#include "gpu/runner.hh"
#include "trace/report.hh"

using namespace libra;

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv,
                       {"benchmark", "frames", "width", "height"});
    const BenchmarkSpec &spec =
        findBenchmark(args.get("benchmark", "CCS"));
    const auto frames =
        static_cast<std::uint32_t>(args.getUint("frames", 4));
    const auto width =
        static_cast<std::uint32_t>(args.getUint("width", 960));
    const auto height =
        static_cast<std::uint32_t>(args.getUint("height", 544));

    auto run = [&](GpuConfig cfg) {
        cfg.screenWidth = width;
        cfg.screenHeight = height;
        Result<RunResult> r = runBenchmark(spec, cfg, frames);
        if (!r.isOk())
            fatal(spec.abbrev, ": ", r.status().toString());
        return std::move(*r);
    };

    std::printf("design-space sweep on %s (%s)\n", spec.abbrev.c_str(),
                spec.title.c_str());

    banner("Raster Units x cores (LIBRA scheduling, 8 cores total)");
    {
        Table table({"organization", "cycles/frame", "fps",
                     "energy mJ/f"});
        for (const auto &[rus, cores] :
             std::vector<std::pair<std::uint32_t, std::uint32_t>>{
                 {1, 8}, {2, 4}, {4, 2}}) {
            const RunResult r = run(GpuConfig::libra(rus, cores));
            table.addRow({std::to_string(rus) + " RU x "
                              + std::to_string(cores) + " cores",
                          Table::num(static_cast<double>(
                                         r.totalCycles()) / frames, 0),
                          Table::num(r.fps(), 1),
                          Table::num(r.totalEnergyMj() / frames, 2)});
        }
        table.print();
    }

    banner("Texture L1 size (LIBRA 2RUx4)");
    {
        Table table({"L1 size", "tex hit", "tex lat", "cycles/frame"});
        for (const std::uint32_t kb : {8u, 16u, 32u, 64u}) {
            GpuConfig cfg = GpuConfig::libra(2, 4);
            cfg.textureCache.sizeBytes = kb * 1024;
            const RunResult r = run(cfg);
            table.addRow({std::to_string(kb) + " KB",
                          Table::pct(r.textureHitRatio()),
                          Table::num(r.avgTextureLatency(), 1),
                          Table::num(static_cast<double>(
                                         r.totalCycles()) / frames, 0)});
        }
        table.print();
    }

    banner("DRAM channels (LIBRA 2RUx4)");
    {
        Table table({"channels", "dram lat", "cycles/frame"});
        for (const std::uint32_t ch : {1u, 2u, 4u}) {
            GpuConfig cfg = GpuConfig::libra(2, 4);
            cfg.dram.channels = ch;
            const RunResult r = run(cfg);
            table.addRow({std::to_string(ch),
                          Table::num(r.avgDramReadLatency(), 1),
                          Table::num(static_cast<double>(
                                         r.totalCycles()) / frames, 0)});
        }
        table.print();
    }
    return 0;
}
