#!/usr/bin/env python3
"""Non-vacuity check for scripts/bench_gate.py.

usage: check_bench_gate.py SNAPSHOT

The gate must pass SNAPSHOT against itself, fail against every copy
with one hard-gated key perturbed or one soft ratio pushed below
1 - MAX_LOSS (the 0.05 that bench.sh's BENCH_MAX_LOSS defaults to),
and pass when a hard key moves together with a shape key
(different shapes are not compared). Exits 1 on the first surprise.
"""
import copy
import json
import os
import subprocess
import sys
import tempfile

MAX_LOSS = "0.05"
GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_gate.py")

HARD = [("mc", "sim_cycles"), ("mc", "commits"),
        ("shards", "makespan_cycles"), ("ycsb", "total_sim_cycles"),
        ("serve", "total_sim_cycles"), ("serve", "digest"), ("chaos", "digest"),
        ("chaos", "strict"), ("chaos", "lossy"), ("ptm", "total_sim_cycles"),
        ("ptm", "digest")]
SOFT = [("matrix", "sim_ops_per_s"), ("mc", "sim_ops_per_s"), ("ycsb", "sim_ops_per_s"),
        ("serve", "req_per_s"), ("chaos", "points_per_s"), ("ptm", "sim_ops_per_s")]


def bump(v):
    """A different value of the same JSON type (hex digests stay hex)."""
    if isinstance(v, str):
        return v[:-1] + ("0" if v[-1] != "0" else "1")
    return v + 1


def main(snapshot):
    base = json.load(open(snapshot))
    cases = [("itself", base, 0)]
    for section, key in HARD:
        cur = copy.deepcopy(base)
        cur[section][key] = bump(cur[section][key])
        cases.append((f"{section}.{key} perturbed", cur, 1))
    for section, key in SOFT:
        cur = copy.deepcopy(base)
        cur[section][key] *= (1.0 - float(MAX_LOSS)) * 0.99
        cases.append((f"{section}.{key} below 1 - {MAX_LOSS}", cur, 1))
    cur = copy.deepcopy(base)
    cur["ycsb"]["total_sim_cycles"] += 1
    cur["ycsb"]["ops"] += 1
    cases.append(("ycsb cycles moved with its ops shape", cur, 0))
    cur = copy.deepcopy(base)
    cur["shards"]["makespan_cycles"] += 1
    cur["ops"] += 1
    cases.append(("shards makespan moved with the top-level ops", cur, 0))

    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, cur, want in cases:
            path = os.path.join(tmp, "current.json")
            with open(path, "w") as f:
                json.dump(cur, f)
            got = subprocess.run([sys.executable, GATE, snapshot, path, MAX_LOSS],
                                 capture_output=True).returncode
            ok = (got == 0) == (want == 0)
            print(f"{'ok  ' if ok else 'FAIL'} {name}: gate exit {got}")
            bad += not ok
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip().splitlines()[2])
    sys.exit(main(sys.argv[1]))
