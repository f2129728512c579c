/**
 * @file
 * Quickstart: render a few frames of one synthetic game on the baseline
 * GPU and on LIBRA, and print the headline numbers.
 *
 * Usage:
 *   quickstart [--benchmark CCS] [--frames 4] [--width 1920]
 *              [--height 1080]
 */

#include <cstdio>

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
    const std::string bench = args.get("benchmark", "CCS");
    const auto frames =
        static_cast<std::uint32_t>(args.getUint("frames", 4));
    const auto width =
        static_cast<std::uint32_t>(args.getUint("width", 1920));
    const auto height =
        static_cast<std::uint32_t>(args.getUint("height", 1080));

    const BenchmarkSpec &spec = findBenchmark(bench);
    std::printf("benchmark: %s (%s, %s)\n", spec.abbrev.c_str(),
                spec.title.c_str(), genreName(spec.genre));

    GpuConfig base = GpuConfig::baseline(8);
    base.screenWidth = width;
    base.screenHeight = height;
    GpuConfig libra_cfg = GpuConfig::libra(2, 4);
    libra_cfg.screenWidth = width;
    libra_cfg.screenHeight = height;

    // The examples sit at the CLI boundary: any library error (bad
    // configuration, wedged run) simply ends the process.
    auto must = [&](const Result<RunResult> &r) {
        if (!r.isOk())
            fatal(spec.abbrev, ": ", r.status().toString());
        return *r;
    };
    const RunResult r_base = must(runBenchmark(spec, base, frames));
    const RunResult r_libra =
        must(runBenchmark(spec, libra_cfg, frames));

    Table table({"config", "cycles/frame", "fps", "tex hit", "tex lat",
                 "dram lat", "energy (mJ/frame)"});
    auto row = [&](const char *name, const RunResult &r) {
        table.addRow({name,
                      Table::num(static_cast<double>(r.totalCycles())
                                     / frames, 0),
                      Table::num(r.fps(), 1),
                      Table::pct(r.textureHitRatio()),
                      Table::num(r.avgTextureLatency(), 1),
                      Table::num(r.avgDramReadLatency(), 1),
                      Table::num(r.totalEnergyMj() / frames, 2)});
    };
    row("baseline 1RUx8", r_base);
    row("LIBRA    2RUx4", r_libra);
    table.print();

    std::printf("\nLIBRA speedup: %.3fx\n", speedup(r_base, r_libra));
    return 0;
}
