#!/usr/bin/env bash
# Parent-binary equivalence: the CI `--json` command set, run with two
# `slpmt` binaries, must print byte-identical output.
#
# Every command below prints only simulated figures (no wall-clock,
# worker-count or host field), so a change that claims not to move the
# simulation — a host-speed optimisation or a refactor — must leave all
# of them unchanged, and no command may depend on the worker count.
# Each command runs with both binaries at SLPMT_THREADS=1 and at 4; each
# parent/change pair is compared with `cmp`, and so is CHANGE_BIN's
# output at 1 thread against its output at 4.
#
# Usage:
#   scripts/equivalence.sh PARENT_BIN CHANGE_BIN
#
# Build the parent in a separate clone (`git clone`, then `cargo build
# --release` there) and pass its target/release/slpmt as PARENT_BIN.
# Passing one binary as both is the determinism check CI runs. Exits 1
# if any pair differs, 2 on a usage error.
set -uo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 PARENT_BIN CHANGE_BIN" >&2
  exit 2
fi
parent=$1
change=$2
for bin in "$parent" "$change"; do
  if [ ! -x "$bin" ]; then
    echo "error: $bin is not an executable" >&2
    exit 2
  fi
done

# name|arguments: the one list of CI's simulated-output commands.
commands=(
  "faults|faults --ops 12 --points 2 --json"
  "ycsb|ycsb --mix all --load 40 --ops 120 --sweep --points 6 --json"
  "serve|serve --load 100 --requests 300 --json"
  "chaos|chaos --requests 30 --points 2 --json"
  "ptm|ptm --workload all --ops 200 --json"
  "mc|mc --cores 3 --seed 5 --sched weighted:9 --json"
  "shards|shards hashtable --ops 300 --shards 4 --json"
  "matrix|matrix --ops 60 --json"
)

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

failed=0
for threads in 1 4; do
  for entry in "${commands[@]}"; do
    name=${entry%%|*}
    read -r -a args <<< "${entry#*|}"
    for side in parent change; do
      bin=$parent
      [ "$side" = change ] && bin=$change
      if ! SLPMT_THREADS=$threads "$bin" "${args[@]}" > "$out/$name.$threads.$side" 2> "$out/$name.$threads.$side.err"; then
        echo "FAIL  $name (SLPMT_THREADS=$threads): $side binary exited non-zero"
        sed 's/^/      /' "$out/$name.$threads.$side.err"
        failed=1
        continue 2
      fi
    done
    if cmp -s "$out/$name.$threads.parent" "$out/$name.$threads.change"; then
      echo "same  $name (SLPMT_THREADS=$threads, $(wc -c < "$out/$name.$threads.change") bytes)"
    else
      echo "DIFF  $name (SLPMT_THREADS=$threads)"
      cmp "$out/$name.$threads.parent" "$out/$name.$threads.change" | sed 's/^/      /'
      failed=1
    fi
  done
done

for entry in "${commands[@]}"; do
  name=${entry%%|*}
  [ -f "$out/$name.1.change" ] && [ -f "$out/$name.4.change" ] || continue
  if cmp -s "$out/$name.1.change" "$out/$name.4.change"; then
    echo "same  $name (change binary, SLPMT_THREADS=1 vs 4)"
  else
    echo "DIFF  $name (change binary, SLPMT_THREADS=1 vs 4)"
    cmp "$out/$name.1.change" "$out/$name.4.change" | sed 's/^/      /'
    failed=1
  fi
done

if [ "$failed" -ne 0 ]; then
  echo "equivalence: FAILED"
  exit 1
fi
echo "equivalence: all ${#commands[@]} commands byte-identical at SLPMT_THREADS=1 and 4, and between them"
