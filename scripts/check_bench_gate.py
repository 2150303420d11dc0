#!/usr/bin/env python3
"""Non-vacuity check for scripts/bench_gate.py.

usage: check_bench_gate.py SNAPSHOT

The gate must pass SNAPSHOT against itself, fail against every copy
with one hard-gated key perturbed, fail when every shape differs (no
hard key compared), and pass when a hard key moves together with a
shape key (different shapes are not compared) or is absent from the
baseline (a new key is not compared). Exits 1 on the first surprise.
"""
import copy
import json
import os
import subprocess
import sys
import tempfile

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_gate.py")

HARD = [("matrix", "total_sim_cycles"), ("matrix", "digest"),
        ("mc", "sim_cycles"), ("mc", "commits"),
        ("shards", "makespan_cycles"), ("ycsb", "total_sim_cycles"),
        ("serve", "total_sim_cycles"), ("serve", "digest"), ("chaos", "digest"),
        ("chaos", "strict"), ("chaos", "lossy"), ("ptm", "total_sim_cycles"),
        ("ptm", "digest")]


def bump(v):
    """A different value of the same JSON type (hex digests stay hex)."""
    if isinstance(v, dict):
        return {k: bump(x) for k, x in v.items()}
    if isinstance(v, str):
        return v[:-1] + ("0" if v[-1] != "0" else "1")
    return v + 1


def main(snapshot):
    base = json.load(open(snapshot))
    # (name, baseline, current, want exit 0)
    cases = [("itself", base, base, True)]
    for section, key in HARD:
        cur = copy.deepcopy(base)
        cur[section][key] = bump(cur[section][key])
        cases.append((f"{section}.{key} perturbed", base, cur, False))
    # Every key but the hard ones moved: each section's shape differs,
    # so nothing is compared and the gate must not pass vacuously.
    cur = {k: bump(v) for k, v in base.items()}
    for section, key in HARD:
        cur[section][key] = base[section][key]
    cases.append(("every shape changed", base, cur, False))
    cur = copy.deepcopy(base)
    cur["ycsb"]["total_sim_cycles"] += 1
    cur["ycsb"]["ops"] += 1
    cases.append(("ycsb cycles moved with its ops shape", base, cur, True))
    cur = copy.deepcopy(base)
    cur["matrix"]["digest"] = bump(cur["matrix"]["digest"])
    cur["matrix"]["cells"] += 1
    cases.append(("matrix digest moved with its cells shape", base, cur, True))
    cur = copy.deepcopy(base)
    cur["shards"]["makespan_cycles"] += 1
    cur["ops"] += 1
    cases.append(("shards makespan moved with the top-level ops", base, cur, True))
    old = copy.deepcopy(base)
    del old["matrix"]["digest"]
    cur = copy.deepcopy(base)
    cur["matrix"]["digest"] = bump(cur["matrix"]["digest"])
    cases.append(("matrix digest absent from the baseline", old, cur, True))

    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, n) for n in ("baseline.json", "current.json")]
        for name, b, c, want in cases:
            for path, doc in zip(paths, (b, c)):
                with open(path, "w") as f:
                    json.dump(doc, f)
            got = subprocess.run([sys.executable, GATE, *paths],
                                 capture_output=True).returncode
            ok = (got == 0) == want
            print(f"{'ok  ' if ok else 'FAIL'} {name}: gate exit {got}")
            bad += not ok
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip().splitlines()[2])
    sys.exit(main(sys.argv[1]))
