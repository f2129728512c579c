/**
 * @file
 * Deep-dive into one game: per-frame statistics on LIBRA, including the
 * adaptive scheduler's per-frame decisions (tile ordering, supertile
 * size) and a DRAM heatmap dump — the kind of trace a scheduling study
 * starts from.
 *
 * Usage:
 *   game_benchmark [--benchmark SuS] [--frames 8] [--width 960]
 *                  [--height 544] [--heatmap out.ppm] [--list]
 */

#include <cstdio>

#include "common/cli.hh"
#include "gpu/runner.hh"
#include "trace/heatmap.hh"
#include "trace/report.hh"

using namespace libra;

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv, {"benchmark", "frames", "width",
                                    "height", "heatmap", "list"});
    if (args.getBool("list")) {
        Table table({"abbr", "title", "genre", "class"});
        for (const auto &spec : benchmarkSuite()) {
            table.addRow({spec.abbrev, spec.title,
                          genreName(spec.genre),
                          spec.memoryIntensive ? "memory" : "compute"});
        }
        table.print();
        return 0;
    }

    const BenchmarkSpec &spec =
        findBenchmark(args.get("benchmark", "SuS"));
    const auto frames =
        static_cast<std::uint32_t>(args.getUint("frames", 8));
    const auto width =
        static_cast<std::uint32_t>(args.getUint("width", 960));
    const auto height =
        static_cast<std::uint32_t>(args.getUint("height", 544));

    GpuConfig cfg = GpuConfig::libra(2, 4);
    cfg.screenWidth = width;
    cfg.screenHeight = height;

    const Scene scene(spec, width, height);
    Gpu gpu(cfg);

    std::printf("%s — %s (%s), %zu textures, %.1f MB of art\n",
                spec.abbrev.c_str(), spec.title.c_str(),
                genreName(spec.genre), scene.textures().count(),
                static_cast<double>(scene.textures().totalBytes())
                    / 1e6);

    Table table({"frame", "cycles", "geom", "order", "supertile",
                 "tex hit", "tex lat", "dram lat", "dram MB",
                 "energy mJ"});
    FrameStats last;
    for (std::uint32_t f = 0; f < frames; ++f) {
        const FrameStats fs = gpu.renderFrame(scene.frame(f),
                                              scene.textures());
        table.addRow({std::to_string(f), std::to_string(fs.totalCycles),
                      std::to_string(fs.geomCycles),
                      fs.temperatureOrder ? "temp" : "z",
                      std::to_string(fs.supertileSize) + "x"
                          + std::to_string(fs.supertileSize),
                      Table::pct(fs.textureHitRatio),
                      Table::num(fs.avgTextureLatency, 1),
                      Table::num(fs.avgDramReadLatency, 1),
                      Table::num(static_cast<double>(fs.dramReads
                                                     + fs.dramWrites)
                                     * 64.0 / 1e6, 2),
                      Table::num(fs.energy.totalMj, 2)});
        last = fs;
    }
    table.print();

    std::printf("\nper-tile DRAM heatmap of the last frame:\n");
    std::fputs(heatmapAscii(gpu.tileGrid(), last.tileDram).c_str(),
               stdout);
    const std::string out = args.get("heatmap", "");
    if (!out.empty()) {
        writeHeatmapPpm(out, gpu.tileGrid(), last.tileDram);
        std::printf("wrote %s\n", out.c_str());
    }
    return 0;
}
