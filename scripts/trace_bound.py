#!/usr/bin/env python3
"""Disabled-tracing bound (DESIGN.md §11) on paired perfbench runs.

Usage: python3 scripts/trace_bound.py FILE

FILE is the saved output of
  scripts/perf_pairs.sh DEFAULT_BIN NOTRACE_BIN paper-load 10
where DEFAULT_BIN is perfbench built from one checkout by default (the
tracing hooks compiled in, disabled at runtime) and NOTRACE_BIN the same
checkout built with `--features no-trace` (the hooks compiled out).
perf_pairs.sh has already failed if any simulated metric differs.

The default build may cost at most 2% of ops_per_s. The check fails only
when both hold: the no-trace build's ops_per_s gain is shown by the rule
scripts/pair_summary.py uses for a gain (>= 9 of 10 pairs, and a median
gap above the default side's interquartile range), and its median pair
ratio no-trace/default is above MAX_RATIO. A gap that the runs cannot
tell from noise therefore never fails it, however large its median.
Next to the verdict it prints the run's resolution: the smallest gain it
could show, the default side's interquartile range over its median. The
bound holds only to that resolution; a run noisier than MAX_RATIO - 1
cannot enforce it.

Exit 1 when the bound is broken or FILE does not hold exactly PAIRS
`raw` lines, 2 on a usage error.
"""
import statistics
import sys

from pair_summary import compare, read_pairs

PAIRS = 10
MAX_RATIO = 1.02


def main(path):
    pairs = read_pairs([path])
    if len(pairs) != PAIRS:
        print(f"trace bound: FAIL: {len(pairs)} `raw` line(s) in {path}, want {PAIRS}",
              file=sys.stderr)
        return 1
    (q1, median, q3), _, ratios, wins, shown = compare(pairs, "ops_per_s", higher=True)
    ratio = statistics.median(ratios)
    broken = shown and ratio > MAX_RATIO
    print(f"trace bound: {PAIRS} pairs, no-trace wins {wins}/{PAIRS}, "
          f"median ops_per_s ratio no-trace/default {ratio:.4f} (bound {MAX_RATIO}), "
          f"gain {'shown' if shown else 'not shown'}: {'FAIL' if broken else 'OK'} "
          f"(smallest showable gain {(q3 - q1) / median:.2%})")
    return 1 if broken else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print("usage: python3 scripts/trace_bound.py FILE", file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1]))
