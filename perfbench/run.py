#!/usr/bin/env python3
"""Build and run the libra-sim benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload frame-loop|sweep|farm \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (the library from src/ plus the benchmark program)
with CMake into $CARGO_TARGET_DIR, default .bench_build/, then runs one
workload.
Build output goes to stderr. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. A traced
run also writes a Chrome trace to <build dir>/traces/. The exit code is
nonzero when the build, an operation or an output check fails.

The benchmark program prints raw samples, per-layer values and exact
counts; this script is the one place the end-to-end metrics are made
from the samples, and BENCHMARK.json the one place metric names and
units are kept. An untraced run splits its time over several processes,
one after the other, because how fast a process runs depends partly on
where its memory happens to land; every metric is a median over all of
the processes' samples.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170
# Processes an untraced run is split over; each gets an equal share of
# --seconds, sized to fit whole repetitions: one 3 s simulation, one 8 s
# sweep, or two 2.5 s farm rounds. A simulation's speed varies by up to
# 50% between processes and little within one, so frame-loop and sweep
# draw on many processes.
PROCESSES = {"frame-loop": 12, "sweep": 4, "farm": 6}


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_root):
    bdir = os.path.join(build_root, "perfbench-" + BUILD_TYPE)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            fail("cmake configure failed", 3)
    jobs = str(os.cpu_count() or 1)
    if subprocess.call(["cmake", "--build", bdir, "-j", jobs],
                       stdout=sys.stderr) != 0:
        fail("build failed", 3)
    return os.path.join(bdir, "perfbench")


def source_id():
    """The git commit of a clone, else a digest of src/."""
    if os.path.exists(os.path.join(REPO, ".git")):
        try:
            out = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top, dirs, files in os.walk(os.path.join(REPO, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(top, name)
            digest.update(os.path.relpath(path, REPO).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def load_spec():
    """BENCHMARK.json's metric units, end-to-end and per-layer."""
    path = os.path.join(REPO, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}", 4)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PROCESSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    end_to_end, per_layer = load_spec()
    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR")
        or os.path.join(REPO, ".bench_build"))
    binary = build(build_root)

    base = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--trace", str(args.trace), "--commit", source_id()]
    if args.trace:
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        base += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    runs = 1 if args.trace else PROCESSES[args.workload]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    parts = []
    for i in range(runs):
        # A relative work dir keeps the farm's AF_UNIX socket path short.
        work = os.path.join(build_root, "work",
                            f"{args.workload}-{args.seed}-{os.getpid()}-{i}")
        cmd = base + ["--seconds", str(args.seconds / runs),
                      "--work-dir", os.path.relpath(work)]
        if runs > 1:
            print(f"--- process {i + 1} of {runs} ---")
        parts.append(run_process(cmd, work, deadline))

    result = check(parts, per_layer)
    if args.trace:
        metrics = traced_metrics(parts[0], per_layer)
    elif result["correct"]:
        metrics = untraced_metrics(parts, end_to_end)
    else:
        metrics = {}
    for name, m in metrics.items():
        print(f"result {name} {m['value']!r} {m['unit']}")
    result["metrics"] = metrics
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] else 1)


def run_process(cmd, work, deadline):
    """Run one benchmark process, echo its output and parse it."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 5)
    shutil.rmtree(work, ignore_errors=True)
    part = {"ok": proc.returncode == 0, "metrics": {}, "setup": [],
            "repetitions": [], "exact": [], "peak_rss_mb": None,
            "operations": None}
    for line in out.splitlines():
        print(line)
        if not line.strip():
            continue
        word, *rest = line.split()
        if word == "metric":
            part["metrics"][rest[0]] = float(rest[1])
        elif word == "setup":
            part["setup"] = [float(v) for v in rest]
        elif word == "repetition":
            part["repetitions"].append(
                (float(rest[0]), [float(v) for v in rest[1:]]))
        elif word == "exact":
            part["exact"].append(line)
        elif word == "peak_rss_mb":
            part["peak_rss_mb"] = float(rest[0])
        elif word == "operations":
            part["operations"] = (int(rest[0]), int(rest[1]))
    if part["operations"] is None:
        fail(f"no operations line (exit code {proc.returncode})", 4)
    return part


def check(parts, per_layer):
    """correct, attempted and failed over every process, plus the
    checks only a merge can make: one exact block, one request count
    per repetition, and metric names and units as in BENCHMARK.json."""
    attempted = sum(p["operations"][0] for p in parts)
    failed = sum(p["operations"][1] for p in parts)
    problems = []
    if any(p["exact"] != parts[0]["exact"] for p in parts):
        problems.append("processes print different exact counts")
    if len({len(ms) for p in parts for _, ms in p["repetitions"]}) != 1:
        problems.append("repetitions differ in request count or are missing")
    if not all(p["setup"] and p["peak_rss_mb"] for p in parts):
        problems.append("a process printed no set-up or peak RSS sample")
    exact = {line.split()[1] for line in parts[0]["exact"]}
    for name in parts[0]["metrics"]:
        if name not in per_layer:
            problems.append(f"metric {name} is not in BENCHMARK.json")
        elif (name in exact) != per_layer[name].endswith("-exact"):
            problems.append(f"metric {name}: exact block and unit "
                            f"{per_layer[name]} disagree")
    attempted += 1
    failed += bool(problems)
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    return {"correct": failed == 0 and all(p["ok"] for p in parts),
            "attempted": attempted, "failed": failed}


def percentile(values, p):
    """Linear-interpolation percentile."""
    v = sorted(values)
    pos = p / 100 * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def untraced_metrics(parts, end_to_end):
    """The end-to-end metrics. Each repetition (a simulation, sweep or
    farm round) gives its own request p50, p95 and throughput; a metric
    is the median over every repetition of every process."""
    reps = [r for p in parts for r in p["repetitions"]]
    rules = {
        "setup_s": [s for p in parts for s in p["setup"]],
        "req_per_s": [len(ms) / wall for wall, ms in reps],
        "req_p50_ms": [percentile(ms, 50) for _, ms in reps],
        "req_p95_ms": [percentile(ms, 95) for _, ms in reps],
        "peak_rss_mb": [p["peak_rss_mb"] for p in parts],
    }
    missing = sorted(set(end_to_end) - set(rules))
    if missing:
        fail(f"no rule for end-to-end metrics {missing}", 4)
    print(f"--- merged: {len(parts)} processes, {len(reps)} repetitions, "
          f"{sum(len(ms) for _, ms in reps)} requests ---")
    return {name: {"value": statistics.median(rules[name]), "unit": unit}
            for name, unit in end_to_end.items()}


def traced_metrics(part, per_layer):
    """The per-layer metrics; those this workload does not reach read
    0."""
    return {name: {"value": part["metrics"].get(name, 0.0), "unit": unit}
            for name, unit in per_layer.items()}


if __name__ == "__main__":
    main()
