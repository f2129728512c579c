/**
 * @file
 * The benchmark program: `perfbench --workload <frame-loop|sweep|farm>
 * --seed N --seconds S --trace 0|1 --work-dir DIR [--trace-out FILE]
 * [--commit ID]`.
 *
 * --trace 0 runs the workload with spans off; --trace 1 runs it with a
 * span recorded around every public call, and adds each span's self
 * time and the tracing overhead to the per-layer metrics. Either way
 * the program prints raw samples, per-layer metrics and the exact
 * block (see Report::print); run.py makes the result line from them.
 * The exit code is nonzero when any operation or output check failed.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hh"
#include "spans.hh"

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "frame-loop|sweep|farm --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR [--trace-out FILE] [--commit ID]\n",
                 why);
    std::exit(2);
}

void
runPass(const Options &opt, const std::string &dir, Report &rep)
{
    Options pass = opt;
    pass.workDir = dir;
    std::filesystem::create_directories(dir);
    if (opt.workload == "frame-loop")
        runFrameLoop(pass, rep);
    else if (opt.workload == "sweep")
        runSweep(pass, rep);
    else
        runFarm(pass, rep);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

/** Wall time of one Span open and close with recording on. */
double
spanCostNs()
{
    constexpr int kSpans = 100000;
    SpanLog::enable(true);
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kSpans; ++i)
        Span s("bench.calibrate");
    const double ns = since(t0) * 1e9 / kSpans;
    SpanLog::enable(false);
    SpanLog::clear();
    return ns;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    double seconds = 0.0;
    std::string trace_out, commit = "unknown";
    bool have_workload = false, have_dir = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i], value = argv[i + 1];
        if (flag == "--workload") {
            opt.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            seconds = std::strtod(value.c_str(), nullptr);
        } else if (flag == "--trace") {
            opt.trace = value == "1";
        } else if (flag == "--work-dir") {
            opt.workDir = value;
            have_dir = true;
        } else if (flag == "--trace-out") {
            trace_out = value;
        } else if (flag == "--commit") {
            commit = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (argc % 2 == 0)
        usage("every flag takes a value");
    if (!have_workload
        || (opt.workload != "frame-loop" && opt.workload != "sweep"
            && opt.workload != "farm"))
        usage("--workload must be frame-loop, sweep or farm");
    if (!have_dir)
        usage("--work-dir is required");
    if (!(seconds > 0.0))
        usage("--seconds must be positive");
    opt.budget = seconds;

    std::printf("host nproc=%u compiler=%s build_type=%s commit=%s\n",
                std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE, commit.c_str());
    std::printf("run workload=%s seed=%llu seconds=%g trace=%d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), seconds,
                opt.trace ? 1 : 0);

    Report rep;
    if (!opt.trace) {
        runPass(opt, opt.workDir + "/pass", rep);
    } else {
        // Overhead: the spans recorded times the cost of one, as a share
        // of the traced pass's wall time.
        const double span_ns = spanCostNs();
        SpanLog::enable(true);
        const Clock::time_point t0 = Clock::now();
        runPass(opt, opt.workDir + "/pass", rep);
        const double wall_s = since(t0);
        SpanLog::enable(false);
        const auto spans = static_cast<double>(SpanLog::count());
        rep.set("bench.trace_overhead_pct",
                spans * span_ns / (wall_s * 1e9) * 100.0);
        rep.note("span_cost_ns", span_ns, "ns");
        rep.note("spans", spans, "count");
        const std::map<std::string, double> self = SpanLog::selfMs();
        double total = 0.0;
        for (const auto &[name, ms] : self)
            total += ms;
        for (const auto &[name, ms] : self) {
            rep.set("self." + name, total > 0.0 ? ms / total * 100.0 : 0.0);
            rep.note("self_ms." + name, ms, "ms");
        }
        if (!trace_out.empty()) {
            rep.op(SpanLog::writeChromeTrace(trace_out),
                   "write Chrome trace " + trace_out);
        }
    }
    rep.print();
    std::fflush(stdout);
    return rep.failed() == 0 ? 0 : 1;
}
