/**
 * @file
 * Trace tool: capture a benchmark's frame stream to a .ltrc file, then
 * replay it through any GPU configuration — the decoupled
 * capture/replay workflow the paper's methodology (trace-driven
 * simulation) uses.
 *
 * Usage:
 *   trace_tool record --benchmark CCS --frames 8 --out ccs.ltrc
 *   trace_tool replay --in ccs.ltrc [--config SPEC]
 *   trace_tool info   --in ccs.ltrc
 *
 * SPEC is a config spec (parseConfigSpec, src/gpu/policy_registry.hh),
 * e.g. libra (the default), ptr, baseline or re-libra:4x2.
 */

#include <cstdio>
#include <cstring>

#include "common/cli.hh"
#include "common/log.hh"
#include "gpu/gpu.hh"
#include "gpu/policy_registry.hh"
#include "trace/frame_trace.hh"
#include "trace/report.hh"
#include "workload/benchmarks.hh"

using namespace libra;

namespace
{

int
record(const CliArgs &args)
{
    const BenchmarkSpec &spec =
        findBenchmark(args.get("benchmark", "CCS"));
    const auto frames =
        static_cast<std::uint32_t>(args.getUint("frames", 8));
    const auto width =
        static_cast<std::uint32_t>(args.getUint("width", 960));
    const auto height =
        static_cast<std::uint32_t>(args.getUint("height", 544));
    const std::string out = args.get("out", spec.abbrev + ".ltrc");

    const Scene scene(spec, width, height);
    if (Status st = writeTrace(out, scene, 0, frames); !st.isOk()) {
        std::fprintf(stderr, "failed to write %s: %s\n", out.c_str(),
                     st.toString().c_str());
        return 1;
    }
    std::printf("recorded %u frames of %s (%ux%u) to %s\n", frames,
                spec.abbrev.c_str(), width, height, out.c_str());
    return 0;
}

int
replay(const CliArgs &args)
{
    const std::string in = args.get("in", "trace.ltrc");
    FrameTrace trace;
    if (Status st = trace.load(in); !st.isOk()) {
        std::fprintf(stderr, "failed to load %s: %s\n", in.c_str(),
                     st.toString().c_str());
        return 1;
    }

    Result<GpuConfig> spec = parseConfigSpec(args.get("config", "libra"));
    if (!spec.isOk())
        fatal("--config: ", spec.status().message());
    GpuConfig cfg = *spec;
    cfg.screenWidth = trace.screenWidth();
    cfg.screenHeight = trace.screenHeight();

    Gpu gpu(cfg);
    Table table({"frame", "cycles", "order", "supertile", "tex hit",
                 "dram lat"});
    std::uint64_t total = 0;
    for (std::size_t f = 0; f < trace.frameCount(); ++f) {
        const FrameStats fs = gpu.renderFrame(trace.frame(f),
                                              trace.textures());
        total += fs.totalCycles;
        table.addRow({std::to_string(f), std::to_string(fs.totalCycles),
                      fs.temperatureOrder ? "temp" : "z",
                      std::to_string(fs.supertileSize),
                      Table::pct(fs.textureHitRatio),
                      Table::num(fs.avgDramReadLatency, 1)});
    }
    table.print();
    std::printf("\ntotal: %llu cycles, %.1f fps\n",
                static_cast<unsigned long long>(total),
                800e6 * static_cast<double>(trace.frameCount())
                    / static_cast<double>(total));
    return 0;
}

int
info(const CliArgs &args)
{
    const std::string in = args.get("in", "trace.ltrc");
    FrameTrace trace;
    if (Status st = trace.load(in); !st.isOk()) {
        std::fprintf(stderr, "failed to load %s: %s\n", in.c_str(),
                     st.toString().c_str());
        return 1;
    }
    std::printf("screen: %ux%u, %zu frames, %zu textures\n",
                trace.screenWidth(), trace.screenHeight(),
                trace.frameCount(), trace.textures().count());
    for (std::size_t f = 0; f < trace.frameCount(); ++f) {
        std::printf("  frame %zu: %zu draws, %zu triangles\n", f,
                    trace.frame(f).draws.size(),
                    trace.frame(f).triangleCount());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv,
                       {"benchmark", "frames", "width", "height", "out",
                        "in", "config"});
    if (args.positional().empty()) {
        std::fprintf(stderr,
                     "usage: trace_tool record|replay|info [options]\n");
        return 2;
    }
    const std::string &mode = args.positional().front();
    if (mode == "record")
        return record(args);
    if (mode == "replay")
        return replay(args);
    if (mode == "info")
        return info(args);
    std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
    return 2;
}
