#!/usr/bin/env bash
# Performance snapshot + regression gate (DESIGN.md §12).
#
# Builds the release binary, runs `slpmt bench --json` (matrix,
# multi-core, 16-way sharded scaling, YCSB mixes, the KV serve front
# end, the software-PTM baselines, per-op microbenches; wall-clock
# columns best-of-N), writes the
# snapshot to BENCH_<n>.json — one past the
# newest index, so the repo accumulates a perf trajectory — and compares
# the host sim-throughput numbers against the newest committed
# BENCH_*.json. Fails if matrix or mc sim-ops/s regressed more than
# the allowed loss.
#
# Knobs:
#   BENCH_RUNS      best-of-N reps inside slpmt bench (default 3)
#   BENCH_OPS       inserts per matrix cell (default 1000)
#   BENCH_MAX_LOSS  max fractional throughput loss (default 0.05)
#   BENCH_OUT       output path (default BENCH_<next>.json)
#   BENCH_BASELINE  baseline path (default newest BENCH_*.json)
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS="${BENCH_RUNS:-3}"
OPS="${BENCH_OPS:-1000}"
MAX_LOSS="${BENCH_MAX_LOSS:-0.05}"

cargo build --release -q

baseline="${BENCH_BASELINE:-}"
if [ -z "$baseline" ]; then
  baseline=$(ls BENCH_*.json 2>/dev/null | sort -V | tail -n 1 || true)
fi

out="${BENCH_OUT:-}"
if [ -z "$out" ]; then
  # One past the highest committed index (BENCH_1..5 never existed,
  # so the first gap is not the next entry).
  last=$(ls BENCH_*.json 2>/dev/null | sort -V | tail -n 1 | tr -dc '0-9')
  out="BENCH_$((${last:-0} + 1)).json"
fi

./target/release/slpmt bench --ops "$OPS" --reps "$RUNS" --json > "$out"
echo "wrote $out"

if [ -z "$baseline" ] || [ ! -e "$baseline" ]; then
  echo "no committed BENCH_*.json baseline; skipping regression gate"
  exit 0
fi

echo "gating against $baseline (max loss $MAX_LOSS)"
python3 - "$baseline" "$out" "$MAX_LOSS" <<'PY'
import json, sys

base = json.load(open(sys.argv[1]))
cur = json.load(open(sys.argv[2]))
max_loss = float(sys.argv[3])
fail = False
for section in ("matrix", "mc", "ycsb"):
    if section not in base:
        # Baselines predating the section (e.g. ycsb, added with
        # BENCH_7) can't gate it.
        print(f"{section:<6} absent from baseline; skipping")
        continue
    b = base[section]["sim_ops_per_s"]
    c = cur[section]["sim_ops_per_s"]
    ratio = c / b
    print(f"{section:<6} baseline {b:>12.0f} sim-ops/s  "
          f"current {c:>12.0f} sim-ops/s  ratio {ratio:.3f}")
    if ratio < 1.0 - max_loss:
        print(f"{section}: regressed more than {max_loss:.0%}",
              file=sys.stderr)
        fail = True
# The simulated shard makespan is deterministic: any drift is a
# semantic change, not noise, so it gates hard.
bm = base["shards"]["makespan_cycles"]
cm = cur["shards"]["makespan_cycles"]
if base["ops"] == cur["ops"] and base["value_bytes"] == cur["value_bytes"]:
    print(f"shards makespan: baseline {bm} cycles, current {cm} cycles")
    if bm != cm:
        print("shards: simulated makespan changed — semantics moved",
              file=sys.stderr)
        fail = True
# Same for the summed YCSB-mix cycle count (when both snapshots have
# the section and ran the same trace shape).
if "ycsb" in base and "ycsb" in cur:
    by, cy = base["ycsb"], cur["ycsb"]
    if all(by[k] == cy[k] for k in ("cells", "load", "ops", "value_bytes")):
        print(f"ycsb cycles: baseline {by['total_sim_cycles']}, "
              f"current {cy['total_sim_cycles']}")
        if by["total_sim_cycles"] != cy["total_sim_cycles"]:
            print("ycsb: simulated cycle count changed — semantics moved",
                  file=sys.stderr)
            fail = True
# KV serve front end (added with BENCH_8): soft host-throughput ratio,
# plus hard equality on the simulated cycle count and the response
# digest whenever both snapshots ran the same request shape.
if "serve" in base:
    bs, cs = base["serve"], cur["serve"]
    b, c = bs["req_per_s"], cs["req_per_s"]
    ratio = c / b
    print(f"serve  baseline {b:>12.0f} req/s      "
          f"current {c:>12.0f} req/s      ratio {ratio:.3f}")
    if ratio < 1.0 - max_loss:
        print(f"serve: regressed more than {max_loss:.0%}", file=sys.stderr)
        fail = True
    if all(bs[k] == cs[k] for k in ("mix", "shards", "load", "requests")):
        print(f"serve cycles: baseline {bs['total_sim_cycles']}, "
              f"current {cs['total_sim_cycles']}; "
              f"digest {bs['digest']} vs {cs['digest']}")
        if bs["total_sim_cycles"] != cs["total_sim_cycles"]:
            print("serve: simulated cycle count changed — semantics moved",
                  file=sys.stderr)
            fail = True
        if bs["digest"] != cs["digest"]:
            print("serve: response digest changed — wire bytes moved",
                  file=sys.stderr)
            fail = True
# Chaos battery (added with BENCH_9): soft host-throughput ratio, plus
# hard equality on the sweep digest and point outcomes whenever both
# snapshots ran the same matrix shape — the sweep is fully simulated,
# so any drift is semantic.
if "chaos" in base:
    bc, cc = base["chaos"], cur["chaos"]
    b, c = bc["points_per_s"], cc["points_per_s"]
    ratio = c / b
    print(f"chaos  baseline {b:>12.0f} points/s   "
          f"current {c:>12.0f} points/s   ratio {ratio:.3f}")
    if ratio < 1.0 - max_loss:
        print(f"chaos: regressed more than {max_loss:.0%}", file=sys.stderr)
        fail = True
    if all(bc[k] == cc[k] for k in ("cases", "points")):
        print(f"chaos digest: {bc['digest']} vs {cc['digest']} "
              f"({bc['strict']}/{bc['lossy']} vs {cc['strict']}/{cc['lossy']} "
              f"strict/lossy)")
        if bc["digest"] != cc["digest"]:
            print("chaos: sweep digest changed — semantics moved",
                  file=sys.stderr)
            fail = True
        if (bc["strict"], bc["lossy"]) != (cc["strict"], cc["lossy"]):
            print("chaos: point outcomes changed — semantics moved",
                  file=sys.stderr)
            fail = True
# Software-PTM baselines (added with BENCH_10): soft host-throughput
# ratio, plus hard equality on the summed simulated cycle count and
# the folded per-cell digest whenever both snapshots ran the same
# matrix shape — every gated column is simulated, so drift is
# semantic.
if "ptm" in base:
    bp, cp = base["ptm"], cur["ptm"]
    b, c = bp["sim_ops_per_s"], cp["sim_ops_per_s"]
    ratio = c / b
    print(f"ptm    baseline {b:>12.0f} sim-ops/s  "
          f"current {c:>12.0f} sim-ops/s  ratio {ratio:.3f}")
    if ratio < 1.0 - max_loss:
        print(f"ptm: regressed more than {max_loss:.0%}", file=sys.stderr)
        fail = True
    if all(bp[k] == cp[k] for k in ("cells", "ops", "value_bytes")):
        print(f"ptm cycles: baseline {bp['total_sim_cycles']}, "
              f"current {cp['total_sim_cycles']}; "
              f"digest {bp['digest']} vs {cp['digest']}")
        if bp["total_sim_cycles"] != cp["total_sim_cycles"]:
            print("ptm: simulated cycle count changed — semantics moved",
                  file=sys.stderr)
            fail = True
        if bp["digest"] != cp["digest"]:
            print("ptm: baseline digest changed — semantics moved",
                  file=sys.stderr)
            fail = True
sys.exit(1 if fail else 0)
PY
echo "bench gate OK"
