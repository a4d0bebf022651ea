#!/usr/bin/env python3
"""Builds and runs the lakehouse benchmark; prints one JSON summary line.

    python3 lakebench/run.py --workload tpch_power --seed 1 --seconds 24 \
        --trace 0 [--results-dir DIR] [--expr-policy tree]

Run from the repository root. The first run configures and builds
lakebench/CMakeLists.txt (the engine from src/ plus the benchmark program)
into $CARGO_TARGET_DIR, or .bench_build/ when unset. Each run writes a
result file with every metric, its unit and sample count, and provenance
(git sha, source digest, build type, nproc, seed, scale, sample counts)
to the results directory (.bench_results/ by default); a traced run also
writes its span file there. The last line of standard output is

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

holding the BENCHMARK.json end_to_end metrics (--trace 0) or per_layer
metrics (--trace 1). Exits non-zero, without that line, when the build or
the run fails; exits 1 after printing it when a result is incorrect.
"""

import argparse
import datetime
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "lakebench")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    out = build_dir()
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        generated = [os.path.join(out, f) for f in ("build.ninja", "Makefile")]
        if not any(os.path.exists(f) for f in generated):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
                   "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
        subprocess.run(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)],
                       check=True, stdout=sys.stderr, env=env)
    return os.path.join(out, "lakebench")


def source_digest():
    """sha256 over the engine, the shared bench helpers and the benchmark
    sources: names the code under test even where the checkout is not a
    git repository."""
    h = hashlib.sha256()
    for top in ("src", "bench", "lakebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["tpch_power", "tpch_throughput", "lakehouse_upsert"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--results-dir", default=os.path.join(ROOT, ".bench_results"))
    ap.add_argument("--expr-policy", default="adaptive",
                    choices=["adaptive", "tree", "fused", "compiled"])
    ap.add_argument("--pair", type=int, default=None,
                    help="pair index, recorded for compare.py (set by ab.py)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("lakebench: build failed: %s" % e)
        return 3

    digest = source_digest()
    os.makedirs(args.results_dir, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    result_file = os.path.join(
        args.results_dir, "%s-seed%d-trace%d-%s-%d.json"
        % (args.workload, args.seed, args.trace, stamp, os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--expr-policy", args.expr_policy,
           "--result-file", result_file, "--out-dir", args.results_dir,
           "--oracle-dir", os.path.join(build_dir(), "oracle"),
           "--oracle-key", digest[:16]]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or ""))
        log("lakebench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 4
    sys.stdout.write(proc.stdout)
    if proc.returncode not in (0, 1) or not os.path.exists(result_file):
        log("lakebench: run failed with exit code %d" % proc.returncode)
        return 4

    with open(result_file) as f:
        result = json.load(f)
    result["provenance"] = {
        "git_sha": git_sha(),
        "source_digest": digest,
        "build_type": BUILD_TYPE,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "scale_factor": result["config"].get("scale_factor"),
        "samples": {k: v["samples"] for k, v in result["metrics"].items()},
        "expr_policy": args.expr_policy,
        "pair": args.pair,
        "utc": stamp,
        "command": sys.argv,
    }
    with open(result_file, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            log("lakebench: metric %s missing from the result" % m["name"])
            return 4
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = bool(result["correct"]) and proc.returncode == 0
    print("result file: %s" % os.path.relpath(result_file, ROOT))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
