#!/usr/bin/env python3
"""Regression gate between two `slpmt bench --json` snapshots (DESIGN.md §12).

usage: bench_gate.py BASELINE CURRENT

Every figure of a snapshot is simulated and deterministic, so any
difference in a hard key is a semantic change, not noise. Every section
is gated the same way, from one table: its hard keys must be equal
whenever its shape keys are (a key written `/name` is read from the top
level). A section whose shape differs is reported and not compared; so
are a section and a hard key the baseline predates.

Exits 1 if any hard key differs, if a gated section or key is missing
from CURRENT, or if no hard key was compared at all.
"""
import json
import sys

MOVED = "changed — semantics moved"

# (section, shape keys, [(hard keys, what changed)])
GATES = [
    ("matrix", ("cells", "/ops", "/value_bytes"),
     [(("total_sim_cycles",), f"simulated cycle total {MOVED}"),
      (("digest",), f"cell digest {MOVED}")]),
    ("mc", ("cores", "sim_ops"),
     [(("sim_cycles",), f"simulated cycle count {MOVED}"),
      (("commits",), f"commit count {MOVED}")]),
    ("ycsb", ("cells", "load", "ops", "value_bytes"),
     [(("total_sim_cycles",), f"simulated cycle count {MOVED}")]),
    ("shards", ("/ops", "/value_bytes"),
     [(("makespan_cycles",), f"simulated makespan {MOVED}")]),
    ("serve", ("mix", "shards", "load", "requests"),
     [(("total_sim_cycles",), f"simulated cycle count {MOVED}"),
      (("digest",), "response digest changed — wire bytes moved")]),
    ("chaos", ("cases", "points"),
     [(("digest",), f"sweep digest {MOVED}"),
      (("strict", "lossy"), f"point outcomes {MOVED}")]),
    ("ptm", ("cells", "ops", "value_bytes"),
     [(("total_sim_cycles",), f"simulated cycle count {MOVED}"),
      (("digest",), f"baseline digest {MOVED}")]),
]


def main(baseline, current):
    base = json.load(open(baseline))
    cur = json.load(open(current))
    fail = False
    compared = 0

    def failed(section, what):
        nonlocal fail
        print(f"{section}: {what}", file=sys.stderr)
        fail = True

    for section, shape, hard in GATES:
        if section not in base:
            print(f"{section}: absent from baseline; skipping")
            continue
        if section not in cur:
            failed(section, "missing from the current snapshot")
            continue

        def field(doc, key):
            return doc.get(key[1:]) if key.startswith("/") else doc[section].get(key)

        if any(field(base, k) != field(cur, k) for k in shape):
            print(f"{section}: shape differs, hard keys not compared")
            continue
        b, c = base[section], cur[section]
        for keys, what in hard:
            for k in keys:
                if k not in c:
                    failed(section, f"{k} missing from the current snapshot")
                elif k not in b:
                    print(f"{section}.{k}: new, absent from baseline; not compared")
                else:
                    print(f"{section}.{k}: baseline {b[k]}, current {c[k]}")
                    compared += 1
            if any(k in b and k in c and b[k] != c[k] for k in keys):
                failed(section, what)
    if not compared:
        failed("gate", "no hard key was compared")
    return 1 if fail else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2])
    sys.exit(main(*sys.argv[1:]))
