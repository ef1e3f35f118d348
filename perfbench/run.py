#!/usr/bin/env python3
"""The repository benchmark: builds acolay and the perfbench binary from
source, runs one workload and prints its result as the last stdout line.

Usage, from the repository root:

  python3 perfbench/run.py --workload batch_large|serve_mix|serve_edit \\
      --seed N --seconds S --trace 0|1

`--workload all` runs the three in turn and prints each report.

Steadiness mode (runs a workload over several seeds and prints each
metric's median, quartiles and spread next to its BENCHMARK.json bound):

  python3 perfbench/run.py --steady --workload serve_mix --runs 10 \\
      [--first-seed 1] [--seconds 20] [--save out.json]
  python3 perfbench/run.py --compare first.json second.json

See perfbench/README.md for the workloads, metrics and trace format.
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ["batch_large", "serve_mix", "serve_edit"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    # The cargo-style variable names the build directory if set.
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def run_logged(cmd, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode


def build():
    """Builds the library, the daemon and the benchmark binary; returns
    (perfbench path, acolay_serve path) or None on failure."""
    top = build_dir()
    lib = os.path.join(top, "acolay")
    bench_dir = os.path.join(top, "perfbench")
    os.makedirs(top, exist_ok=True)
    log = os.path.join(top, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(lib, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", lib,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DACOLAY_BUILD_TESTS=OFF", "-DACOLAY_BUILD_BENCH=OFF",
                      "-DACOLAY_BUILD_EXAMPLES=OFF", "-DACOLAY_WERROR=OFF"])
    steps.append(["cmake", "--build", lib, "--target", "acolay",
                  "acolay_serve", "-j", jobs])
    if not os.path.exists(os.path.join(bench_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bench_dir,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DACOLAY_SOURCE_DIR=" + ROOT,
                      "-DACOLAY_BINARY_DIR=" + lib])
    steps.append(["cmake", "--build", bench_dir, "-j", jobs])
    for cmd in steps:
        if run_logged(cmd, log) != 0:
            with open(log) as f:
                sys.stderr.write("".join(f.readlines()[-40:]))
            sys.stderr.write("perfbench: build failed (log: %s)\n" % log)
            return None
    return (os.path.join(bench_dir, "perfbench"),
            os.path.join(lib, "src", "acolay_serve"))


def run_once(binaries, workload, seed, seconds, trace, echo=True):
    """Runs the benchmark binary once; returns (exit code, result dict or
    None)."""
    bench, serve = binaries
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [bench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--serve-bin", serve,
           "--trace-out", os.path.join(traces, "%s-seed%s.jsonl" % (workload, seed))]
    # Own process group, so a timeout also stops the daemons it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1, None
    lines = out.rstrip("\n").split("\n")
    result = None
    if proc.returncode == 0 and lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    return (proc.returncode if result is not None else 1), result


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def steady(args, binaries):
    bounds = load_bounds()
    values = {}
    for k in range(args.runs):
        seed = args.first_seed + k
        t0 = time.time()
        code, result = run_once(binaries, args.workload, seed, args.seconds,
                                0, echo=False)
        if result is None or not result["correct"]:
            print("run with seed %d failed (exit %d)" % (seed, code))
            return 1
        print("seed %d: %.1f s" % (seed, time.time() - t0))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print("%-16s %12s %12s %12s %8s %6s" %
          ("metric", "q1", "median", "q3", "spread", "bound"))
    for name, vals in values.items():
        q1, med, q3, s = spread(vals)
        bound = bounds.get(name, {}).get("bound", float("nan"))
        flag = "ok" if s <= bound / 3 else ("<bound" if s <= bound else "WIDE")
        print("%-16s %12.6g %12.6g %12.6g %8.4f %6.3f %s" %
              (name, q1, med, q3, s, bound, flag))
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "values": values}, f, indent=1)
    return 0


def compare(first, second):
    bounds = load_bounds()
    with open(first) as f:
        a = json.load(f)
    with open(second) as f:
        b = json.load(f)
    print("workload %s" % a["workload"])
    worse = 0
    for name, vals in a["values"].items():
        m1 = statistics.median(vals)
        m2 = statistics.median(b["values"][name])
        spec = bounds[name]
        change = (m2 - m1) / m1 if m1 else 0.0
        regress = -change if spec["better"] == "higher" else change
        bad = regress > spec["bound"]
        worse += bad
        print("%-16s %12.6g -> %12.6g  %+7.2f%%  bound %.0f%% %s" %
              (name, m1, m2, 100 * change, 100 * spec["bound"],
               "WORSE" if bad else "ok"))
    return 1 if worse else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--save")
    p.add_argument("--compare", nargs=2)
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        p.error("--workload is required")
    binaries = build()
    if binaries is None:
        return 1
    if args.steady:
        return steady(args, binaries)
    if args.workload == "all":
        worst = 0
        for workload in WORKLOADS:
            print("== %s" % workload, flush=True)
            code, result = run_once(binaries, workload, args.seed,
                                    args.seconds, args.trace)
            if code != 0 or not result["correct"]:
                worst = 1
        return worst
    code, _ = run_once(binaries, args.workload, args.seed, args.seconds,
                       args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
