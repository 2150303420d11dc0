#!/usr/bin/env bash
# Paired host-speed comparison of two perfbench binaries on one workload.
#
# Runs PARENT_BIN and CHANGE_BIN untraced (`--trace 0`) for PAIRS pairs,
# alternating which side runs first, each at the benchmark's run length
# (`run_seconds` in BENCHMARK.json). Both sides of pair i use seed
# FIRST_SEED + i; FIRST_SEED defaults to one derived from the clock, so
# every invocation runs on seeds no earlier run used (pass it to replay).
#
# Fails (exit 1) if any run is not `correct`, or if the two sides of a
# pair differ in `correct`, `failed` or any simulated metric: those
# depend on the seed only, so a host-speed change must leave them equal.
# It prints one `raw` line per pair: a JSON object with the seed, the
# side that ran first and both sides' host end-to-end metrics. It then
# summarises those lines with scripts/pair_summary.py (medians,
# quartiles, wins, and whether a gain is shown), which also pools the
# pairs of several invocations from their saved output:
#   python3 scripts/pair_summary.py batch1.txt batch2.txt
#
# Usage:
#   scripts/perf_pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD PAIRS [FIRST_SEED]
#
# Build each binary from its own checkout, e.g.
#   cargo build --release --offline --manifest-path perfbench/Cargo.toml
# with CARGO_TARGET_DIR outside the repository, and run this from the
# repository root. The run logs go to a temporary directory that is
# removed on exit; nothing is written under perfbench/. Exit 2 on a
# usage error.
set -uo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
  echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD PAIRS [FIRST_SEED]" >&2
  exit 2
fi
parent=$1
change=$2
workload=$3
pairs=$4
first_seed=${5:-$(( $(date +%s) % 1000000 * 100 ))}
for bin in "$parent" "$change"; do
  if [ ! -x "$bin" ]; then
    echo "error: $bin is not an executable" >&2
    exit 2
  fi
done
if ! [[ "$pairs" =~ ^[1-9][0-9]*$ && "$first_seed" =~ ^[0-9]+$ ]]; then
  echo "error: PAIRS must be a positive integer and FIRST_SEED a number" >&2
  exit 2
fi
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])') || {
  echo "error: run from the repository root (BENCHMARK.json not readable)" >&2
  exit 2
}

logs=$(mktemp -d)
trap 'rm -rf "$logs"' EXIT

echo "perf_pairs: $workload, $pairs pair(s), ${seconds} s runs, seeds $first_seed..$(( first_seed + pairs - 1 ))"
for (( i = 0; i < pairs; i++ )); do
  seed=$(( first_seed + i ))
  if (( i % 2 == 0 )); then order="parent change"; else order="change parent"; fi
  for side in $order; do
    if [ "$side" = parent ]; then bin=$parent; else bin=$change; fi
    if ! "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        --spans-dir "$logs" > "$logs/$i.$side" 2>&1; then
      echo "error: $side run failed (pair $i, seed $seed):" >&2
      tail -n 5 "$logs/$i.$side" >&2
      exit 1
    fi
  done
  echo "  pair $i (seed $seed, $order) done"
done

python3 - "$logs" "$pairs" "$first_seed" > "$logs/raw" <<'EOF'
import json, sys

logs, pairs, first_seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
# The end-to-end metrics that time the host (perfbench/README.md); every
# other metric is simulated and depends on the seed alone.
HOST = ["ops_per_s", "op_p50_us", "op_p99_us", "setup_s", "peak_rss_mb"]

def result(i, side):
    with open(f"{logs}/{i}.{side}") as f:
        return json.loads(f.read().strip().splitlines()[-1])

def host(r):
    return {m: r["metrics"][m]["value"] for m in HOST if m in r["metrics"]}

bad = []
for i in range(pairs):
    p, c = result(i, "parent"), result(i, "change")
    for side, r in (("parent", p), ("change", c)):
        if not r["correct"]:
            bad.append(f"pair {i}: {side} run is not correct")
    for key in ("correct", "failed"):
        if p[key] != c[key]:
            bad.append(f"pair {i}: {key} {p[key]} vs {c[key]}")
    for name in sorted(set(p["metrics"]) | set(c["metrics"])):
        if name in HOST:
            continue
        pv = p["metrics"].get(name, {}).get("value")
        cv = c["metrics"].get(name, {}).get("value")
        if pv != cv:
            bad.append(f"pair {i}: simulated {name} {pv} vs {cv}")
    first = "parent" if i % 2 == 0 else "change"
    print("raw " + json.dumps({"seed": first_seed + i, "first": first,
                               "parent": host(p), "change": host(c)}))
if bad:
    print("FAIL: the two sides differ where only the seed may matter:", file=sys.stderr)
    for line in bad:
        print("  " + line, file=sys.stderr)
    sys.exit(1)
EOF
status=$?
cat "$logs/raw"
python3 scripts/pair_summary.py "$logs/raw" || exit 1
if [ "$status" -eq 0 ]; then
  echo "simulated metrics, correct and failed identical in all $pairs pair(s)"
fi
exit "$status"
