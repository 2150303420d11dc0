#!/usr/bin/env python3
"""Summarise paired host-speed runs from the `raw` lines of perf_pairs.sh.

Usage: python3 scripts/pair_summary.py FILE...

Reads every line that starts with `raw ` in the given files (the saved
output of one or more scripts/perf_pairs.sh runs on one workload), so
batches pool by naming them together. For every host end-to-end metric
it prints each side's median and quartiles, the median and range of the
per-pair ratio change/parent, and the change's win count (ties count for
neither side). It then says whether a gain is shown: at least ten pairs,
the change wins at least nine tenths of them, and the medians differ, in
the change's favour, by more than the parent's interquartile range.
Run from the repository root: each metric's better direction comes from
BENCHMARK.json. Exit 1 if the files hold no `raw` line, 2 on a usage
error.
"""
import json
import statistics
import sys

HOST = ["ops_per_s", "op_p50_us", "op_p99_us", "setup_s", "peak_rss_mb"]


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def read_pairs(paths):
    """Every `raw` line of the given files, parsed."""
    pairs = []
    for path in paths:
        with open(path) as f:
            pairs += [json.loads(line[4:]) for line in f if line.startswith("raw ")]
    return pairs


def compare(pairs, name, higher):
    """One host metric over the pairs: both sides' quartiles, the
    per-pair ratios change/parent, the change's wins, and whether its
    gain is shown (>= 10 pairs, >= 9/10 wins, and a median gap in its
    favour above the parent's interquartile range)."""
    pv = [p["parent"][name] for p in pairs]
    cv = [p["change"][name] for p in pairs]
    n = len(pairs)
    wins = sum(1 for a, b in zip(pv, cv) if (b > a if higher else b < a))
    ratios = [b / a for a, b in zip(pv, cv) if a]
    pq, cq = quartiles(pv), quartiles(cv)
    gap = cq[1] - pq[1] if higher else pq[1] - cq[1]
    shown = n >= 10 and wins * 10 >= 9 * n and gap > pq[2] - pq[0]
    return pq, cq, ratios, wins, shown


def main(paths):
    pairs = read_pairs(paths)
    if not pairs:
        print("error: no `raw` lines in " + " ".join(paths), file=sys.stderr)
        return 1
    with open("BENCHMARK.json") as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    n = len(pairs)
    print(f"{n} pair(s)")
    print(f"{'metric':<12} {'parent median (Q1-Q3)':>34} {'change median (Q1-Q3)':>34} "
          f"{'ratio median [min, max]':>26} {'wins':>6}  gain")
    for name in HOST:
        if not all(name in p["parent"] and name in p["change"] for p in pairs):
            continue
        higher = better.get(name, "higher") == "higher"
        pq, cq, ratios, wins, shown = compare(pairs, name, higher)
        fmt = lambda q: f"{q[1]:.4g} ({q[0]:.4g}-{q[2]:.4g})"
        rq = f"{statistics.median(ratios):.3f} [{min(ratios):.3f}, {max(ratios):.3f}]" if ratios else "-"
        print(f"{name:<12} {fmt(pq):>34} {fmt(cq):>34} {rq:>26} {wins:>3}/{n:<2}  "
              f"{'shown' if shown else 'not shown'}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print("usage: python3 scripts/pair_summary.py FILE...", file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1:]))
