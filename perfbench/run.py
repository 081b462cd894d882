#!/usr/bin/env python3
"""Entry point of the repository benchmark (see README.md next to this file).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a source tree. Builds the engine and the perfbench
binary from source into .bench_build/perfbench (Release, the repository's
own build rules), then runs one workload. The binary prints its report and,
as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics. Build output goes to standard
error. --self-test runs every workload of BENCHMARK.json at tiny lengths,
traced and untraced, and checks that each prints every named metric with
its unit and passes every correctness check.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; fail the run on error."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(cmd)}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no engine sources under {ROOT} (expected CMakeLists.txt and src/)")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                       "-DCMAKE_BUILD_TYPE=Release"], 300)
        run_quiet(["cmake", "--build", str(BUILD_DIR), "-j",
                   str(os.cpu_count() or 1)], 800)


def source_stamp():
    """git describe when the tree is a git checkout, else a content hash."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "describe", "--always", "--dirty"],
                                 cwd=ROOT, capture_output=True, text=True,
                                 timeout=30)
            if out.returncode == 0 and out.stdout.strip():
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", BENCH_DIR):
        files += sorted(p for p in top.rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def run_binary(args, capture):
    """Run the perfbench binary; returns (exit code, stdout or None)."""
    try:
        done = subprocess.run([str(BINARY)] + args, cwd=ROOT,
                              capture_output=capture, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(args)}")
    return done.returncode, done.stdout if capture else None


def workload_args(workload, seed, seconds, trace):
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace), "--source", source_stamp()]
    if trace:
        traces = BUILD_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        args += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    return args


def self_test():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        digests = set()
        for trace, defs in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            args = workload_args(workload, 7, 0.2, trace) + ["--tiny"]
            code, out = run_binary(args, capture=True)
            lines = out.strip().splitlines()
            problems = []
            if code != 0:
                problems.append(f"exit code {code}")
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = {}
                problems.append("last line is not a JSON object")
            if result and sorted(result) != ["attempted", "correct",
                                             "failed", "metrics"]:
                problems.append(f"result keys {sorted(result)}")
            if result and not (result.get("correct") is True
                               and result.get("failed") == 0
                               and result.get("attempted", 0) >= 1):
                problems.append("correctness: " + ", ".join(
                    l for l in lines if l.startswith("CHECK FAILED")))
            metrics = result.get("metrics", {})
            if list(metrics) != [d["name"] for d in defs]:
                problems.append("metric names differ from BENCHMARK.json")
            for d in defs:
                m = metrics.get(d["name"], {})
                if m.get("unit") != d["unit"]:
                    problems.append(f"{d['name']}: unit {m.get('unit')!r}")
                v = m.get("value")
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    problems.append(f"{d['name']}: value {v!r}")
                elif trace == 0 and v == 0:
                    problems.append(f"{d['name']}: end-to-end metric is 0")
            digests.update(l for l in lines if l.startswith("digest: "))
            status = "PASS" if not problems else "FAIL"
            ok = ok and not problems
            print(f"{status} {workload} --trace {trace}"
                  + "".join(f"\n  {p}" for p in problems))
        if len(digests) != 1:
            ok = False
            print(f"FAIL {workload}: untraced and traced runs printed "
                  f"different digests {sorted(digests)}")
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    if not opts.self_test and None in (opts.workload, opts.seed,
                                       opts.seconds, opts.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    build()
    if opts.self_test:
        return self_test()
    sys.stdout.flush()
    code, _ = run_binary(workload_args(opts.workload, opts.seed,
                                       opts.seconds, opts.trace),
                         capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
