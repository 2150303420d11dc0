#!/usr/bin/env bash
# Simulated snapshot + hard regression gate (DESIGN.md §12).
#
# Builds the release binary, runs `slpmt bench --json` (matrix,
# multi-core, 16-way sharded run, YCSB mixes, the KV serve front end,
# the chaos battery and the software-PTM baselines; every figure
# simulated, so the output is deterministic), writes the snapshot to
# BENCH_<n>.json — one past the newest index, so the repo accumulates
# a trajectory — and gates it against the newest committed
# BENCH_*.json with scripts/bench_gate.py: hard equality on the
# simulated cycle counts, digests and outcome counts. Host speed is
# measured by perfbench/, not here.
#
# Knobs:
#   BENCH_OPS       inserts per matrix cell (default 1000)
#   BENCH_OUT       output path (default BENCH_<next>.json)
#   BENCH_BASELINE  baseline path (default newest BENCH_*.json)
set -euo pipefail
cd "$(dirname "$0")/.."

OPS="${BENCH_OPS:-1000}"

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

./target/release/slpmt bench --ops "$OPS" --json > "$out"
echo "wrote $out"

if [ -z "$baseline" ] || [ ! -e "$baseline" ]; then
  echo "no committed BENCH_*.json baseline; skipping regression gate"
  exit 0
fi

echo "gating against $baseline"
python3 scripts/bench_gate.py "$baseline" "$out"
echo "bench gate OK"
