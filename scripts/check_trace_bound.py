#!/usr/bin/env python3
"""Non-vacuity check for scripts/trace_bound.py.

usage: check_trace_bound.py

Feeds the bound synthetic `raw` lines, as scripts/perf_pairs.sh prints
them with the default build as its parent side and the no-trace build as
its change side. The bound must fail when no-trace wins 10/10 pairs by
5% and when it is given 9 pairs instead of 10; it must pass when
no-trace wins 10/10 by 1% (a shown gain inside the 2% bound) and on a
6/10 split of +/-5% (a median ratio above the bound, but no shown gain).
Exits 1 on the first surprise. Runs no benchmark.
"""
import json
import os
import subprocess
import sys
import tempfile

BOUND = os.path.join(os.path.dirname(os.path.abspath(__file__)), "trace_bound.py")


def raw_lines(factors):
    """One pair per factor: the default side runs at about 100k ops/s
    with a 0.1% spread, the no-trace side at that times the factor."""
    lines = []
    for i, f in enumerate(factors):
        default = 100_000 + 100 * (i - len(factors) / 2)
        pair = {"seed": i, "first": "parent" if i % 2 == 0 else "change",
                "parent": {"ops_per_s": default}, "change": {"ops_per_s": default * f}}
        lines.append("raw " + json.dumps(pair))
    return "\n".join(lines) + "\n"


def main():
    # (name, per-pair no-trace/default factors, want exit 0)
    cases = [
        ("no-trace wins 10/10 by 5%", [1.05] * 10, False),
        ("no-trace wins 9 pairs of 9 by 5%", [1.05] * 9, False),
        ("no-trace wins 10/10 by 1%", [1.01] * 10, True),
        ("6/10 split of +/-5%", [1.05, 0.95] * 4 + [1.05] * 2, True),
    ]
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pairs.txt")
        for name, factors, want in cases:
            with open(path, "w") as f:
                f.write(raw_lines(factors))
            got = subprocess.run([sys.executable, BOUND, path],
                                 capture_output=True).returncode
            ok = (got == 0) == want
            print(f"{'ok  ' if ok else 'FAIL'} {name}: bound exit {got}")
            bad += not ok
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 1:
        sys.exit(__doc__.strip().splitlines()[2])
    sys.exit(main())
