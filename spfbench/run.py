#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 spfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

The first run configures and builds the engine and the benchmark from
source (Release, lock-rank checker off) under .bench_build/spfbench; later
runs only rebuild what changed. The benchmark's last stdout line is one
JSON object with the keys correct, attempted, failed and metrics; its
metric names are checked against BENCHMARK.json before it is printed.

    python3 spfbench/run.py --check-determinism --seed 3 --seconds 10

runs recover_drill twice with the same seed and fails unless the two
runs' simulated metrics and counters are identical.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "spfbench")
BINARY = os.path.join(BUILD_DIR, "spfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; returns False on any failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                return False
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "spfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unavailable (not a git checkout)"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unavailable"


def build_info():
    cache = {}
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(("CMAKE_BUILD_TYPE:", "CMAKE_CXX_COMPILER:")):
                    k, v = line.strip().split("=", 1)
                    cache[k.split(":")[0]] = v
    except OSError:
        pass
    return {"build": {
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
        "compiler": cache.get("CMAKE_CXX_COMPILER", "?"),
        "spf_rank_check": "OFF",
    }}


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_binary(workload, seed, seconds, trace):
    """Runs the benchmark; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1, []
    return proc.returncode, out.splitlines()


def check_result(line, trace):
    """Validates the result line against the contract and BENCHMARK.json."""
    try:
        result = json.loads(line)
    except (json.JSONDecodeError, TypeError):
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are not correct/attempted/failed/metrics"
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return f"metrics differ from BENCHMARK.json: missing {missing} extra {extra} unit {wrong}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number of at least 1"
    return None


def signature(lines):
    for line in lines:
        if line.startswith('{"drill_signature"'):
            return json.loads(line)["drill_signature"]
    return None


def check_determinism(seed, seconds):
    sigs = []
    for i in range(2):
        code, lines = run_binary("recover_drill", seed, seconds, 1)
        if code != 0:
            log(f"recover_drill run {i + 1} failed")
            return 1
        sigs.append(signature(lines))
    if sigs[0] is None or sigs[0] != sigs[1]:
        diff = sorted(k for k in (sigs[0] or {}) if sigs[0].get(k) != (sigs[1] or {}).get(k))
        log(f"recover_drill is not deterministic for seed {seed}: {diff}")
        return 1
    print(json.dumps({"determinism": "identical", "seed": seed,
                      "values_compared": len(sigs[0])}))
    return 0


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check-determinism", action="store_true")
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not args.check_determinism and not args.workload:
        p.error("--workload is required")

    if not build():
        log("build failed")
        return 1
    if args.check_determinism:
        return check_determinism(args.seed, args.seconds)

    print(json.dumps(build_info()), flush=True)
    code, lines = run_binary(args.workload, args.seed, args.seconds, args.trace)
    if not lines:
        log("benchmark printed nothing")
        return 1
    for line in lines[:-1]:
        print(line)
    problem = check_result(lines[-1], args.trace)
    if problem:
        log("invalid result: " + problem)
        return 1
    print(lines[-1], flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
