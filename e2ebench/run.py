#!/usr/bin/env python3
"""End-to-end, layer-by-layer benchmark of the CA-action stack.

Builds the e2ebench package (the caactions library from ../src plus the
caa_e2ebench binary) into the build directory, then runs one workload per
process. Run from the repository root:

  python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run. The last line of standard output is the result JSON.
  python3 e2ebench/run.py --workload all [--seed N] [--seconds S]
      Every workload in turn, each in its own process, then one table of
      every end-to-end metric with its unit, plus operations attempted and
      failed per workload.
  python3 e2ebench/run.py --workload NAME|all --repeat K [--seed N]
      K runs with seeds N..N+K-1; prints each metric's median, quartiles and
      spread ((q3 - q1) / median) next to its bound in BENCHMARK.json.
  python3 e2ebench/run.py --workload NAME|all --self-check
      Corrupts one expected value per workload; each run must report a
      failed operation and exit non-zero.

The build directory is $CARGO_TARGET_DIR when set, else .bench_build, both
relative to the repository root.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["nested_abort", "wide_tree", "txn_transfer", "chaos_crash"]
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds caa_e2ebench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: library sources (src/) not found next to e2ebench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, ".e2ebench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", jobs,
                      "--target", "caa_e2ebench"])
        for cmd in steps:
            # Build chatter goes to stderr: stdout ends with the result.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                sys.exit("e2ebench: build failed: " + " ".join(cmd))
    return os.path.join(out, "caa_e2ebench")


def run_once(binary, workload, seed, seconds, trace, self_check=False,
             echo=True):
    """Runs one workload process; returns (exit code, result dict or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if self_check:
        cmd.append("--self-check")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 124, None
    lines = done.stdout.rstrip("\n").split("\n")
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return done.returncode, result


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        return json.load(f)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(binary, workloads, seed, seconds, trace, k):
    spec = load_spec()
    bounds = {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}
    worst = 0
    for workload in workloads:
        values = {}
        units = {}
        shares = []
        for i in range(k):
            code, result = run_once(binary, workload, seed + i, seconds, trace,
                                    echo=False)
            if code != 0 or result is None:
                print("%s seed %d: exit %d" % (workload, seed + i, code))
                worst = max(worst, 1)
                continue
            shares.append(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print("== %s: %d runs, seeds %d..%d, %s s, trace %d; failed share %s"
              % (workload, k, seed, seed + k - 1, seconds, trace,
                 sorted(set(shares))))
        print("  %-28s %14s %14s %14s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name, vals in values.items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if spread <= bound / 3 else (
                    "within bound" if spread <= bound else "TOO WIDE")
            print("  %-28s %14.6g %14.6g %14.6g %8.4f %6s %s %s" %
                  (name, med, q1, q3, spread,
                   "" if bound is None else bound, units[name], flag))
    return worst


def table(results):
    print()
    print("%-14s %9s %7s  %s" % ("workload", "attempted", "failed", "metrics"))
    for workload, result in results:
        if result is None:
            print("%-14s %9s %7s  (no result)" % (workload, "-", "-"))
            continue
        print("%-14s %9d %7d" % (workload, result["attempted"], result["failed"]))
        for name, m in result["metrics"].items():
            print("    %-26s %16.6g %s" % (name, m["value"], m["unit"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="runs per workload for the steadiness report")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    seconds = int(args.seconds) if args.seconds == int(args.seconds) else args.seconds

    if args.repeat > 0:
        return repeat(binary, workloads, args.seed, seconds, args.trace,
                      args.repeat)

    if args.self_check:
        missed = []
        code = 0
        for workload in workloads:
            code, result = run_once(binary, workload, args.seed, seconds,
                                    args.trace, self_check=True,
                                    echo=len(workloads) == 1)
            caught = code != 0 and result is not None and result["failed"] > 0
            print("self-check %s: %s (exit %d)" %
                  (workload, "failed operation reported" if caught else "NOT CAUGHT",
                   code), file=sys.stderr)
            if not caught:
                missed.append(workload)
        if len(workloads) == 1:
            return code
        # Like a single run: non-zero when every workload reported the
        # corrupted value as a failed operation.
        return 1 if not missed else 0

    if len(workloads) == 1:
        code, _ = run_once(binary, workloads[0], args.seed, seconds, args.trace)
        return code

    results = []
    worst = 0
    for workload in workloads:
        code, result = run_once(binary, workload, args.seed, seconds, args.trace)
        results.append((workload, result))
        worst = max(worst, code)
    table(results)
    return worst


if __name__ == "__main__":
    sys.exit(main())
