#!/usr/bin/env python3
"""Regression gate between two `slpmt bench --json` snapshots (DESIGN.md §12).

usage: bench_gate.py BASELINE CURRENT MAX_LOSS

Every section of a snapshot is gated the same way, from one table:

* the soft key, a host-throughput figure, fails when CURRENT falls more
  than MAX_LOSS (a fraction) below BASELINE;
* the hard keys are simulated and deterministic, so any difference is a
  semantic change, not noise: they must be equal whenever the section's
  shape keys are (a key written `/name` is read from the top level).

A section the baseline predates is skipped. Exits 1 if any gate fails.
"""
import json
import sys

# (section, soft key, soft unit, shape keys, hard-key line,
#  [(hard keys, what changed)])
GATES = [
    ("matrix", "sim_ops_per_s", "sim-ops/s", (), None, []),
    ("mc", "sim_ops_per_s", "sim-ops/s", ("cores", "sim_ops"),
     "mc cycles: baseline {b[sim_cycles]}, current {c[sim_cycles]}; "
     "commits {b[commits]} vs {c[commits]}",
     [(("sim_cycles",), "simulated cycle count changed — semantics moved"),
      (("commits",), "commit count changed — semantics moved")]),
    ("ycsb", "sim_ops_per_s", "sim-ops/s", ("cells", "load", "ops", "value_bytes"),
     "ycsb cycles: baseline {b[total_sim_cycles]}, current {c[total_sim_cycles]}",
     [(("total_sim_cycles",), "simulated cycle count changed — semantics moved")]),
    ("shards", None, None, ("/ops", "/value_bytes"),
     "shards makespan: baseline {b[makespan_cycles]} cycles, "
     "current {c[makespan_cycles]} cycles",
     [(("makespan_cycles",), "simulated makespan changed — semantics moved")]),
    ("serve", "req_per_s", "req/s", ("mix", "shards", "load", "requests"),
     "serve cycles: baseline {b[total_sim_cycles]}, current {c[total_sim_cycles]}; "
     "digest {b[digest]} vs {c[digest]}",
     [(("total_sim_cycles",), "simulated cycle count changed — semantics moved"),
      (("digest",), "response digest changed — wire bytes moved")]),
    ("chaos", "points_per_s", "points/s", ("cases", "points"),
     "chaos digest: {b[digest]} vs {c[digest]} "
     "({b[strict]}/{b[lossy]} vs {c[strict]}/{c[lossy]} strict/lossy)",
     [(("digest",), "sweep digest changed — semantics moved"),
      (("strict", "lossy"), "point outcomes changed — semantics moved")]),
    ("ptm", "sim_ops_per_s", "sim-ops/s", ("cells", "ops", "value_bytes"),
     "ptm cycles: baseline {b[total_sim_cycles]}, current {c[total_sim_cycles]}; "
     "digest {b[digest]} vs {c[digest]}",
     [(("total_sim_cycles",), "simulated cycle count changed — semantics moved"),
      (("digest",), "baseline digest changed — semantics moved")]),
]


def main(baseline, current, max_loss):
    base = json.load(open(baseline))
    cur = json.load(open(current))
    max_loss = float(max_loss)
    fail = False

    def failed(section, what):
        nonlocal fail
        print(f"{section}: {what}", file=sys.stderr)
        fail = True

    for section, soft, unit, shape, line, hard in GATES:
        if section not in base:
            print(f"{section:<6} absent from baseline; skipping")
            continue
        if section not in cur:
            failed(section, "missing from the current snapshot")
            continue
        b, c = base[section], cur[section]
        if soft:
            ratio = c[soft] / b[soft]
            print(f"{section:<6} baseline {b[soft]:>12.0f} {unit:<9}  "
                  f"current {c[soft]:>12.0f} {unit:<9}  ratio {ratio:.3f}")
            if ratio < 1.0 - max_loss:
                failed(section, f"regressed more than {max_loss:.0%}")

        def field(doc, key):
            return doc[key[1:]] if key.startswith("/") else doc[section][key]

        if hard and all(field(base, k) == field(cur, k) for k in shape):
            print(line.format(b=b, c=c))
            for keys, what in hard:
                if any(b[k] != c[k] for k in keys):
                    failed(section, what)
    return 1 if fail else 0


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__.strip().splitlines()[2])
    sys.exit(main(*sys.argv[1:]))
