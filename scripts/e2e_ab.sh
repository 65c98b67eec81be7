#!/usr/bin/env bash
# The gate a change is judged by: an A/B of the repository's benchmark
# between a base commit and this checkout.
#
#   scripts/e2e_ab.sh <base-ref> [pairs]
#
# Makes a git worktree of <base-ref>, then for each of the four workloads
# of BENCHMARK.json runs `pairs` pairs of (base, this checkout) through
# each tree's own e2ebench/run.sh, alternating which side goes first so
# drift of the machine lands on both, and hands the two sets of result
# lines to cmd/benchdiff, whose exit status is this script's. Every
# run's result line is echoed as it is made. pairs defaults to 5, enough
# to tell a regression from noise against the 0.25 bounds; a change that
# claims a gain passes 10. A run takes 10-30 s, so 5 pairs take 10 to
# 15 minutes. (A workload added to BENCHMARK.json and not to the list
# below fails in benchdiff as missing.)
set -euo pipefail
cd "$(dirname "$0")/.."

BASE=${1:?usage: scripts/e2e_ab.sh <base-ref> [pairs]}
PAIRS=${2:-5}

OUT=$(mktemp -d)
trap 'git worktree remove --force "$OUT/base" 2>/dev/null || true; rm -rf "$OUT"' EXIT
git worktree add --quiet --detach "$OUT/base" "$BASE"

for W in compile-corpus run-coarse run-fine serve-mixed; do
  mkdir -p "$OUT/parent/$W" "$OUT/change/$W"
  for I in $(seq 1 "$PAIRS"); do
    if (( I % 2 )); then ORDER="parent change"; else ORDER="change parent"; fi
    for SIDE in $ORDER; do
      TREE=$PWD
      if [ "$SIDE" = parent ]; then TREE=$OUT/base; fi
      # A run that fails still leaves its result line (or none) for
      # benchdiff to judge; its stderr goes to the log.
      bash "$TREE/e2ebench/run.sh" --workload "$W" --seed 1 --seconds 15 --trace 0 > "$OUT/$SIDE/$W/$I.out" || true
      echo "$W pair $I $SIDE: $(tail -n 1 "$OUT/$SIDE/$W/$I.out")"
    done
  done
done

go run ./cmd/benchdiff "$OUT/parent" "$OUT/change"
