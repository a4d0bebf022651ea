#!/usr/bin/env python3
"""Runs alternating A/B pairs of lakebench runs, then compares them.

    python3 lakebench/ab.py --workload tpch_power --pairs 10 --out DIR \
        [--a-root CHECKOUT] [--b-root CHECKOUT] \
        [--a-args "..."] [--b-args "..."] [--first-seed 1]

Pair i runs both sides on seed first_seed + i for BENCHMARK.json's
run_seconds, A first on even pairs and B first on odd ones, so drift in
the machine's load falls on both sides alike. Results go to DIR/a and DIR/b; then compare.py DIR/a DIR/b prints
the verdicts, and its exit status (1 = a regression) is returned.

Two runs of one build:      ab.py --workload tpch_power --out ab/same
Sensitivity check:          ab.py --workload tpch_power --out ab/tree \
                                --b-args "--expr-policy tree"
Parent against change:      ab.py ... --a-root ../parent --b-root .
"""

import argparse
import json
import os
import shlex
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_side(root, workload, seed, seconds, extra, out_dir, pair):
    cmd = [sys.executable, os.path.join(root, "lakebench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0",
           "--results-dir", out_dir, "--pair", str(pair)] + extra
    r = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    last = r.stdout.strip().splitlines()[-1:] or [""]
    print("  pair %d %s rc=%d %s" % (pair, os.path.basename(out_dir),
                                     r.returncode, last[0][:120]), flush=True)
    return r.returncode


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", required=True)
    ap.add_argument("--a-root", default=ROOT)
    ap.add_argument("--b-root", default=ROOT)
    ap.add_argument("--a-args", default="")
    ap.add_argument("--b-args", default="")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]

    sides = [("a", os.path.abspath(args.a_root), shlex.split(args.a_args)),
             ("b", os.path.abspath(args.b_root), shlex.split(args.b_args))]
    failures = 0
    for i in range(args.pairs):
        order = sides if i % 2 == 0 else sides[::-1]
        for name, root, extra in order:
            out_dir = os.path.join(os.path.abspath(args.out), name)
            failures += run_side(root, args.workload, args.first_seed + i,
                                 seconds, extra, out_dir, i) != 0
    if failures:
        print("%d run(s) failed or were incorrect" % failures)
    compare = os.path.join(ROOT, "lakebench", "compare.py")
    rc = subprocess.run([sys.executable, compare,
                         os.path.join(args.out, "a"),
                         os.path.join(args.out, "b")]).returncode
    return 2 if failures else rc


if __name__ == "__main__":
    sys.exit(main())
