#!/usr/bin/env python3
"""Compares two sets of lakebench runs, or summarizes one.

    python3 lakebench/compare.py BASE_DIR NEW_DIR
    python3 lakebench/compare.py RUNS_DIR

Each directory holds result files written by run.py (untraced runs only are
read; span files and traced runs are skipped). For every workload and every
end_to_end metric of BENCHMARK.json it prints one row: each side's median
and quartiles, the spread (quartile distance / median) and a verdict:

  worse       the new median is worse than the base median by more than
              the metric's bound                       -> exit status 1
  better      the new side wins at least 9 in 10 pairs (runs matched by
              the pair index ab.py records, or by seed) and the medians
              differ by more than the base's own spread
  unresolved  a side's spread exceeds the bound, so the runs cannot tell
              (unless every new run beats every base run: better)
  no change   otherwise

With one directory it prints each metric's median, spread and whether the
spread stays within a third of the bound, the steadiness target.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """{workload: [result, ...]} of the untraced result files under path."""
    runs = {}
    files = [path] if os.path.isfile(path) else sorted(
        glob.glob(os.path.join(path, "**", "*.json"), recursive=True))
    for name in files:
        if os.path.basename(name).startswith("spans-"):
            continue
        with open(name) as f:
            r = json.load(f)
        if r.get("trace") or "metrics" not in r:
            continue
        runs.setdefault(r["workload"], []).append(r)
    return runs


def stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def pair_key(r):
    p = r.get("provenance", {}).get("pair")
    return p if p is not None else r["seed"]


def verdict(metric, base, new):
    lower = metric["better"] == "lower"
    bound = metric["bound"]

    def better(x, y):  # x better than y
        return x < y if lower else x > y

    a = [r["metrics"][metric["name"]]["value"] for r in base]
    b = [r["metrics"][metric["name"]]["value"] for r in new]
    ma, _, _, sa = stats(a)
    mb, _, _, sb = stats(b)
    worse_by = ((mb - ma) if lower else (ma - mb)) / ma if ma else 0.0
    if max(sa, sb) > bound:
        if all(better(x, y) for x in b for y in a):
            return "better", worse_by
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    pa = {pair_key(r): r["metrics"][metric["name"]]["value"] for r in base}
    pb = {pair_key(r): r["metrics"][metric["name"]]["value"] for r in new}
    keys = sorted(set(pa) & set(pb), key=str)
    wins = sum(1 for k in keys if better(pb[k], pa[k]))
    if keys and wins >= 0.9 * len(keys) and -worse_by > sa:
        return "better", worse_by
    return "no change", worse_by


def fmt(med, q1, q3):
    return "%10.4g [%.4g, %.4g]" % (med, q1, q3)


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]

    if len(argv) == 2:
        runs = load(argv[1])
        steady = True
        print("%-18s %-18s %4s %-34s %8s %8s" % (
            "workload", "metric", "n", "median [q1, q3]", "spread", "bound/3"))
        for workload in sorted(runs):
            for m in metrics:
                vals = [r["metrics"][m["name"]]["value"] for r in runs[workload]]
                med, q1, q3, spread = stats(vals)
                ok = spread <= m["bound"] / 3
                steady &= ok
                print("%-18s %-18s %4d %-34s %7.2f%% %7.2f%% %s" % (
                    workload, m["name"], len(vals), fmt(med, q1, q3),
                    100 * spread, 100 * m["bound"] / 3, "" if ok else "WIDE"))
            bad = [r for r in runs[workload] if not r["correct"] or r["failed"]]
            if bad:
                steady = False
                print("%-18s %d run(s) incorrect or with failed statements"
                      % (workload, len(bad)))
        return 0 if steady else 1

    base, new = load(argv[1]), load(argv[2])
    regressions = 0
    print("%-18s %-18s %-34s %-34s %9s  %s" % (
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
        "worse by", "verdict"))
    for workload in sorted(set(base) & set(new)):
        for m in metrics:
            a = [r["metrics"][m["name"]]["value"] for r in base[workload]]
            b = [r["metrics"][m["name"]]["value"] for r in new[workload]]
            v, worse_by = verdict(m, base[workload], new[workload])
            regressions += v == "worse"
            print("%-18s %-18s %-34s %-34s %8.2f%%  %s" % (
                workload, m["name"], fmt(*stats(a)[:3]), fmt(*stats(b)[:3]),
                100 * worse_by, v))
    for workload in sorted(set(base) ^ set(new)):
        print("%-18s only in %s" % (workload, "base" if workload in base else "new"))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
