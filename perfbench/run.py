#!/usr/bin/env python3
"""Builds and runs the machine-cost benchmark (see perfbench/README.md).

One workload, from the repository root:

    python3 perfbench/run.py --workload serve-wide --seed 1 --seconds 20 --trace 0

Every workload, untraced then traced, printing every metric:

    python3 perfbench/run.py --all [--seed N] [--seconds S]

The benchmark's own unit tests:

    python3 perfbench/run.py --self-test

The build goes to .bench_build/perfbench (CMake, RelWithDebInfo), scratch
files to .bench_build/work, results to .bench_build/perfbench-results.
The last line of a workload run is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is 0 only when every
correctness check passed.
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

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("serve-wide", "serve-cached-durable", "router-loopback")
RUN_TIMEOUT_S = 150
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# setup_s is the median over SETUP_PROCESSES fresh processes of each one's
# median of SETUP_SAMPLES setups (see README.md, "setup_s").
SETUP_PROCESSES = 21
SETUP_SAMPLES = 101


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(targets, tests=False):
    """Configures (once) and builds `targets`; False on failure."""
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or home[0].split("=", 1)[1].strip() != BENCH_DIR:
            shutil.rmtree(BUILD_DIR)
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                 "-DPERFBENCH_BUILD_TESTS=" + ("ON" if tests else "OFF")]
    if not os.path.exists(cache) or tests:
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def source_commit():
    """The git commit, or a digest of the library and benchmark sources
    when the checkout is not a git repository."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def select_metrics(result, trace, spec):
    """The metrics BENCHMARK.json names for this mode, picked from
    everything the run measured; returns (metrics, problems)."""
    problems = []
    if set(result) != RESULT_KEYS:
        return None, ["result keys %s" % sorted(result)]
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    for name, metric in result["metrics"].items():
        if units.get(name) != metric["unit"]:
            problems.append("metric %s [%s] is not in BENCHMARK.json"
                            % (name, metric["unit"]))
    selected = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        if m["name"] in result["metrics"]:
            selected[m["name"]] = result["metrics"][m["name"]]
        elif trace:
            # The workload does not exercise this layer.
            selected[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            problems.append("metric %s was not measured" % m["name"])
    return selected, problems


def run_binary(args, timeout):
    """Runs the benchmark binary; returns (exit code, stdout lines, parsed
    last line or None)."""
    cmd = [os.path.join(BUILD_DIR, "perfbench")] + args
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out after %d s" % (" ".join(args), timeout))
        return 1, [], None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    try:
        return proc.returncode, lines, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode or 1, lines, None


def setup_medians(workload, seed, work_dir):
    """setup_s of SETUP_PROCESSES fresh setup-only processes, or None when
    one failed."""
    medians = []
    for _ in range(SETUP_PROCESSES):
        code, _, result = run_binary(
            ["--workload", workload, "--seed", str(seed), "--setup-only",
             str(SETUP_SAMPLES), "--work-dir", work_dir], 60)
        if code != 0 or result is None or not result.get("correct"):
            return None
        medians.append(result["metrics"]["setup_s"]["value"])
    return medians


def run_workload(workload, seed, seconds, trace, spec):
    """Runs one workload in a fresh process (and, untraced, its setup-only
    processes); returns (exit code, result, output lines)."""
    tag = "%s-seed%d-trace%d" % (workload, seed, trace)
    work_dir = os.path.join(BUILD_ROOT, "work", tag)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    start = time.monotonic()
    code, lines, result = run_binary(
        ["--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace), "--work-dir", work_dir],
        RUN_TIMEOUT_S)
    if result is None:
        log("perfbench: %s printed no result line (exit %d)" % (tag, code))
        shutil.rmtree(work_dir, ignore_errors=True)
        return code or 1, None, lines
    problems = []
    if not trace:
        medians = setup_medians(workload, seed, work_dir)
        if medians is None:
            problems.append("a setup-only process failed")
        else:
            setup_s = statistics.median(medians)
            result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
            lines.insert(-1, "metric %-32s %.6g s  # median of %d processes' "
                         "medians (%d setups each), min %.6g max %.6g"
                         % ("setup_s", setup_s, len(medians), SETUP_SAMPLES,
                            min(medians), max(medians)))
    metrics, schema_problems = select_metrics(result, trace, spec)
    problems += schema_problems
    for p in problems:
        log("perfbench: %s: %s" % (tag, p))
    if metrics is not None:
        result["metrics"] = metrics

    env_line = "env: commit=%s wall_s=%.1f" % (source_commit(),
                                               time.monotonic() - start)
    lines = lines[:-1] + [env_line]
    results_dir = os.path.join(BUILD_ROOT, "perfbench-results")
    os.makedirs(results_dir, exist_ok=True)
    spans = os.path.join(work_dir, "spans.jsonl")
    if os.path.exists(spans):
        shutil.copyfile(spans, os.path.join(results_dir, tag + ".spans.jsonl"))
    with open(os.path.join(results_dir, tag + ".json"), "w") as f:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": trace, "lines": lines, "result": result}, f,
                  indent=1)
    shutil.rmtree(work_dir, ignore_errors=True)
    if problems and code == 0:
        code = 1
    return code, (None if problems else result), lines


def run_all(seed, seconds, spec):
    summary = {"seed": seed, "seconds": seconds, "runs": []}
    failed = False
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result, lines = run_workload(workload, seed, seconds, trace,
                                               spec)
            print("\n".join(lines))
            print()
            summary["runs"].append({"workload": workload, "trace": trace,
                                    "exit": code, "result": result})
            failed = failed or code != 0 or result is None
    results_dir = os.path.join(BUILD_ROOT, "perfbench-results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, "summary-seed%d.json" % seed)
    with open(path, "w") as f:
        json.dump(summary, f, indent=1)
    print("perfbench: summary written to %s" % os.path.relpath(path, ROOT))
    return 1 if failed else 0


def self_test():
    if not build(["perfbench_test"], tests=True):
        return 2
    return subprocess.run([os.path.join(BUILD_DIR, "perfbench_test")]
                          ).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20170514)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.self_test:
        return self_test()
    if not args.all and args.workload is None:
        parser.error("one of --workload, --all or --self-test is required")
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if seconds < 1:
        parser.error("--seconds must be >= 1")
    if not build(["perfbench"]):
        log("perfbench: build failed")
        return 2
    if args.all:
        return run_all(args.seed, seconds, spec)
    code, result, lines = run_workload(args.workload, args.seed, seconds,
                                       args.trace, spec)
    if result is None:
        return code or 1
    print("\n".join(lines))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
