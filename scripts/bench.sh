#!/usr/bin/env bash
# Performance snapshot + regression gate (DESIGN.md §12).
#
# Builds the release binary, runs `slpmt bench --json` (matrix,
# multi-core, 16-way sharded scaling, YCSB mixes, the KV serve front
# end, the software-PTM baselines, per-op microbenches; wall-clock
# columns best-of-N), writes the
# snapshot to BENCH_<n>.json — one past the
# newest index, so the repo accumulates a perf trajectory — and gates
# it against the newest committed BENCH_*.json with
# scripts/bench_gate.py: soft host-throughput ratios per section, hard
# equality on the simulated cycle counts and digests.
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
python3 scripts/bench_gate.py "$baseline" "$out" "$MAX_LOSS"
echo "bench gate OK"
