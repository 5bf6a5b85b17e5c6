#!/usr/bin/env python3
"""Build and run the xarch end-to-end benchmark.

    python3 perfbench/run.py --workload ingest|read --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the repository root. The benchmark program is built from source
with CMake into $CARGO_TARGET_DIR (default .bench_build), then run; its
last line of standard output is the result JSON. Spans of a traced run
and the run's scratch directories go to .bench_out/.

--self-check runs every workload of BENCHMARK.json at a tiny size, traced
and untraced, checks that each prints every metric BENCHMARK.json names
with its unit, that perfbench/layers.json says what each per-layer metric
should move, and that a corrupted expected response fails the run.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(REPO, path)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(REPO, "src", "xarch", "durable.h")):
        log(f"no xarch source tree at {REPO}; nothing to build")
        sys.exit(2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, errors="replace") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                os.remove(cache)  # configured for another source tree
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "xarch_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            sys.exit(2)
    return os.path.join(out, "xarch_perfbench")


def source_identity():
    """The git commit when there is one, else a digest of the sources."""
    try:
        # The ceiling keeps git from reporting an enclosing repository's
        # commit when the benchmark runs from a plain copy of the tree.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(REPO))
        sha = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
        if sha.returncode == 0:
            return sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    roots = [os.path.join(REPO, "src"), HERE,
             os.path.join(REPO, "CMakeLists.txt")]
    for root in roots:
        files = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(root) for f in fs)
        for path in files:
            digest.update(os.path.relpath(path, REPO).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "none;src-sha256=" + digest.hexdigest()[:16]


def run_bench(binary, args, capture=False):
    """Runs the program; returns (exit code, stdout or None)."""
    cmd = [binary, "--out", os.path.join(REPO, ".bench_out"),
           "--git-sha", source_identity()] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 3, None
    except BaseException:
        proc.kill()  # interrupted: never leave the program running
        proc.wait()
        raise
    return proc.returncode, out.decode() if capture else None


def self_check(binary):
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    problems = []

    for name in per_layer:
        entry = layers.get(name)
        if not entry or not entry.get("moves") or not entry.get("on"):
            problems.append(f"layers.json: no moves/on for {name}")
            continue
        for target in entry["moves"]:
            if target != "none" and target not in e2e:
                problems.append(f"layers.json: {name} moves unknown {target}")
        for w in entry["on"]:
            if w not in workloads:
                problems.append(f"layers.json: {name} on unknown {w}")
    for name in layers:
        if name not in per_layer:
            problems.append(f"layers.json: {name} is not in BENCHMARK.json")

    for workload in workloads:
        for trace, wanted in ((0, e2e), (1, per_layer)):
            label = f"{workload} --trace {trace}"
            before = len(problems)
            code, out = run_bench(binary, [
                "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--tiny"], capture=True)
            if code != 0 or not out:
                problems.append(f"{label}: exit code {code}")
                continue
            result = json.loads(out.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{label}: not correct")
            got = result["metrics"]
            if set(got) != set(wanted):
                problems.append(f"{label}: metrics differ: missing "
                                f"{sorted(set(wanted) - set(got))}, extra "
                                f"{sorted(set(got) - set(wanted))}")
            for name, metric in got.items():
                if name in wanted and metric.get("unit") != wanted[name]:
                    problems.append(f"{label}: {name} unit {metric.get('unit')}")
                value = metric.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{label}: {name} value {value!r}")
                elif trace == 0 and value == 0:
                    problems.append(f"{label}: {name} is 0")
            if len(problems) == before:
                log(f"self-check {label}: ok")

    code, out = run_bench(binary, [
        "--workload", workloads[0], "--seed", "7", "--seconds", "1",
        "--trace", "0", "--tiny", "--corrupt-expected"], capture=True)
    last = out.strip().splitlines()[-1] if out and out.strip() else "{}"
    if code == 0 or json.loads(last).get("correct") is not False:
        problems.append("a corrupted expected response did not fail the run")
    else:
        log("self-check corrupted expected response: fails as it should")

    for p in problems:
        log("self-check: " + p)
    print("self-check: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.self_check:
        return self_check(binary)
    if not args.workload:
        parser.error("--workload is required")
    code, _ = run_bench(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)])
    return code


if __name__ == "__main__":
    sys.exit(main())
