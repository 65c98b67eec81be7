#!/usr/bin/env bash
# Native-backend smoke: generate the Go package for Barnes-Hut, Graph
# and Water, vet, gofmt-check and build each, run them natively (serial
# and parallel), and diff the final state dumps against the serial
# interpreter byte for byte (Water's parallel accumulation order varies,
# so its parallel runs only have to finish cleanly). The speculative leg emits
# the journaled packages for the speculation corpus and byte-diffs both
# the commit and the abort-and-rerun paths. The many-region leg enters
# 2000 guarded parallel regions on the one run-wide pool. The region-entry
# leg runs the three value-returning roots on every path, the dispatch leg
# the three in-region call fixtures.
#
# The shipped speculation and condhash demonstrators have regions of a
# few hundred cost units, under what a region costs to enter: their
# packages are serial versions behind the regions_declined counter. The
# legs that need a commit, an abort or a guard run them widened — the
# shipped text with its size constant at 4096, and for the conflict a
# loop of 4096 more mark calls (scripts/wide_sources.sh).
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

# The emitter runs no formatter: the toolchain's own gofmt, out of
# process, must have nothing to change in what commutec -emit go wrote.
canonical() {
  local files
  files=$(gofmt -l .)
  if [ -n "$files" ]; then
    echo "FAIL: emitted files are not in gofmt's form: $files" >&2
    return 1
  fi
}

for APP in barneshut graph; do
  DIR="$OUT/$APP"
  go run ./cmd/commutec -emit go -o "$DIR" -app "$APP"
  (cd "$DIR" && go vet . && canonical && go build -o app .)
  go run ./cmd/commuterun -mode serial -app "$APP" -dump > "$OUT/$APP.interp"
  for ARGS in "-mode serial" "-mode parallel -workers 1" "-mode parallel -workers 4"; do
    # shellcheck disable=SC2086
    "$DIR/app" $ARGS -dump > "$OUT/$APP.native"
    if ! diff -q "$OUT/$APP.interp" "$OUT/$APP.native" >/dev/null; then
      echo "FAIL: $APP ($ARGS) native state diverges from the interpreter:" >&2
      diff "$OUT/$APP.interp" "$OUT/$APP.native" | head >&2
      exit 1
    fi
  done
  echo "$APP: native == interpreter (serial + parallel at 1 and 4 workers)"
done

. scripts/wide_sources.sh

# The shipped speculation demonstrators: every policy reproduces the
# serial interpreter state byte for byte, and under force the one region
# entry is declined, not speculated.
for APP in specdisjoint specconflict; do
  DIR="$OUT/$APP"
  go run ./cmd/commutec -emit go -o "$DIR" -app "$APP"
  (cd "$DIR" && go vet . && canonical && go build -o app .)
  go run ./cmd/commuterun -mode serial -app "$APP" -dump > "$OUT/$APP.interp"
  for ARGS in "-mode serial" "-mode parallel -workers 4 -speculate force" "-mode parallel -workers 4 -speculate auto"; do
    # shellcheck disable=SC2086
    "$DIR/app" $ARGS -specstats -guardstats -dump > "$OUT/$APP.native" 2> "$OUT/$APP.stats"
    if ! diff -q "$OUT/$APP.interp" "$OUT/$APP.native" >/dev/null; then
      echo "FAIL: $APP ($ARGS) native state diverges from the interpreter:" >&2
      diff "$OUT/$APP.interp" "$OUT/$APP.native" | head >&2
      exit 1
    fi
  done
  # The -speculate auto leg ran last.
  if ! grep -qx "regions_declined 1" "$OUT/$APP.stats" || ! grep -qx "spec_regions 0" "$OUT/$APP.stats"; then
    echo "FAIL: $APP: expected 'regions_declined 1' and 'spec_regions 0' in counters:" >&2
    cat "$OUT/$APP.stats" >&2
    exit 1
  fi
  echo "$APP: native == interpreter (serial + force + auto), region declined"
done

# Speculation: the emitted packages carry the journaled speculative
# versions; check that both the commit path (specdisjoint: disjoint at run time, region
# commits) and the abort path (specconflict: guaranteed violation,
# rollback + serial rerun) reproduce the serial interpreter state byte
# for byte, and that the -specstats counters show the expected outcome.
wide_disjoint > "$OUT/specdisjoint-wide.mc"
wide_conflict > "$OUT/specconflict-wide.mc"
grep -q 'N = 4096' "$OUT/specdisjoint-wide.mc"
grep -q 'mark(0)' "$OUT/specconflict-wide.mc"
for APP in specdisjoint specconflict; do
  DIR="$OUT/$APP-wide"
  go run ./cmd/commutec -emit go -o "$DIR" "$OUT/$APP-wide.mc"
  (cd "$DIR" && go vet . && canonical && go build -o app .)
  go run ./cmd/commuterun -mode serial -dump "$OUT/$APP-wide.mc" > "$OUT/$APP.interp"
  for ARGS in "-mode serial" "-mode parallel -workers 4 -speculate force" "-mode parallel -workers 4 -speculate auto"; do
    # shellcheck disable=SC2086
    "$DIR/app" $ARGS -specstats -dump > "$OUT/$APP.native" 2> "$OUT/$APP.stats"
    if ! diff -q "$OUT/$APP.interp" "$OUT/$APP.native" >/dev/null; then
      echo "FAIL: $APP ($ARGS) speculative native state diverges from the interpreter:" >&2
      diff "$OUT/$APP.interp" "$OUT/$APP.native" | head >&2
      exit 1
    fi
  done
  # The -speculate force leg ran last but one; re-run it for the counters.
  "$DIR/app" -mode parallel -workers 4 -speculate force -specstats > /dev/null 2> "$OUT/$APP.stats"
  case "$APP" in
    specdisjoint) WANT="spec_commits 1" ;;
    specconflict) WANT="spec_aborts 1" ;;
  esac
  if ! grep -q "$WANT" "$OUT/$APP.stats"; then
    echo "FAIL: $APP -speculate force: expected '$WANT' in counters:" >&2
    cat "$OUT/$APP.stats" >&2
    exit 1
  fi
  echo "$APP (wide): speculative native == interpreter (serial + force + auto), counters OK"
done

# Many regions: the wide condhash in mode 0 with 2000 rounds — every
# round a guarded parallel region (a GSS loop and two spawns) entered on
# the run-wide pool the first region started. Output and final state must
# match the serial interpreter, and every guard must have taken the
# parallel path.
ROUNDS=2000
wide_condhash 0 "$ROUNDS" > "$OUT/condhash.mc"
grep -q 'NBUCKET = 4096' "$OUT/condhash.mc"
DIR="$OUT/condhash"
go run ./cmd/commutec -emit go -o "$DIR" "$OUT/condhash.mc"
(cd "$DIR" && go vet . && canonical && go build -o app .)
go run ./cmd/commuterun -mode serial -dump "$OUT/condhash.mc" > "$OUT/condhash.interp"
"$DIR/app" -mode parallel -workers 4 -conditional -guardstats -dump > "$OUT/condhash.native" 2> "$OUT/condhash.stats"
if ! diff -q "$OUT/condhash.interp" "$OUT/condhash.native" >/dev/null; then
  echo "FAIL: condhash x$ROUNDS native state diverges from the interpreter:" >&2
  diff "$OUT/condhash.interp" "$OUT/condhash.native" | head >&2
  exit 1
fi
if ! grep -qx "guard_parallel $ROUNDS" "$OUT/condhash.stats" || ! grep -qx "regions_declined 0" "$OUT/condhash.stats"; then
  echo "FAIL: condhash x$ROUNDS: expected 'guard_parallel $ROUNDS' and 'regions_declined 0' in counters:" >&2
  cat "$OUT/condhash.stats" >&2
  exit 1
fi
echo "condhash x$ROUNDS: native == interpreter over $ROUNDS regions on one pool, counters OK"

# Parallel-loop legality: a loop that carries a counter across its
# iterations stays serial on both runtimes, and after a parallel loop the
# loop variable holds what the serial loop leaves (a step past the bound,
# the start after no iteration). Output and final state of the serial
# interpreter, the parallel interpreter and the emitted binary agree.
loop_fixture carried 4000 > "$OUT/carried.mc"
loop_fixture final 64 > "$OUT/final.mc"
grep -q 'N = 4000' "$OUT/carried.mc"
grep -q 'k = k + 1' "$OUT/carried.mc"
grep -q 'i < five; i += 2' "$OUT/final.mc"
for APP in carried final; do
  DIR="$OUT/$APP"
  go run ./cmd/commutec -emit go -o "$DIR" "$OUT/$APP.mc"
  (cd "$DIR" && go vet . && canonical && go build -o app .)
  go run ./cmd/commuterun -mode serial -dump "$OUT/$APP.mc" > "$OUT/$APP.interp"
  go run ./cmd/commuterun -mode parallel -workers 4 -dump "$OUT/$APP.mc" > "$OUT/$APP.par"
  "$DIR/app" -mode parallel -workers 4 -dump > "$OUT/$APP.native"
  for GOT in par native; do
    if ! diff -q "$OUT/$APP.interp" "$OUT/$APP.$GOT" >/dev/null; then
      echo "FAIL: $APP: $GOT run diverges from the serial interpreter:" >&2
      diff "$OUT/$APP.interp" "$OUT/$APP.$GOT" | head >&2
      exit 1
    fi
  done
  echo "$APP: serial interpreter == parallel interpreter == native"
done
if grep -q 'nativert.GSSOn' "$OUT/carried/prog.go" || ! grep -q 'nativert.GSSOn' "$OUT/final/prog.go"; then
  echo "FAIL: expected no GSS loop in carried/prog.go and one in final/prog.go" >&2
  exit 1
fi

# Region entry: a method that returns a value is never entered as a
# region. The three fixtures — a proven, a guarded and a speculative
# extent whose root's result main prints, each above both entry costs —
# print and dump the serial interpreter's answer on the parallel
# interpreter, the emitted binary and the simulator's tracer, under every
# policy that could have taken the root.
for APP in value-proven value-guarded value-spec; do
  SRC="internal/apps/src/entry/$APP.mc"
  DIR="$OUT/$APP"
  go run ./cmd/commutec -emit go -o "$DIR" "$SRC"
  (cd "$DIR" && go vet . && canonical && go build -o app .)
  go run ./cmd/commuterun -mode serial -dump "$SRC" > "$OUT/$APP.interp"
  go run ./cmd/commuterun -mode simulate -procs 2 "$SRC" > /dev/null
  for POLICY in "" "-conditional" "-speculate force" "-conditional -speculate force"; do
    # commuterun spells the guard flag -conditional on.
    # shellcheck disable=SC2086
    go run ./cmd/commuterun -mode parallel -workers 2 ${POLICY/-conditional/-conditional on} -dump "$SRC" > "$OUT/$APP.par"
    # shellcheck disable=SC2086
    "$DIR/app" -mode parallel -workers 2 $POLICY -dump > "$OUT/$APP.native"
    for GOT in par native; do
      if ! diff -q "$OUT/$APP.interp" "$OUT/$APP.$GOT" >/dev/null; then
        echo "FAIL: $APP ($POLICY): $GOT run diverges from the serial interpreter:" >&2
        diff "$OUT/$APP.interp" "$OUT/$APP.$GOT" | head >&2
        exit 1
      fi
    done
  done
  echo "$APP: serial interpreter == parallel interpreter == native, every policy"
done

# In-region dispatch: an auxiliary call runs the serial version (aux-loop:
# the helper's loop of operations stays serial and the caller keeps its
# lock), an operation on nested objects holds its lock through only when
# nothing it reaches leaves the receiver (hoist-escape: refused, with the
# reason), and a spawn site on a nested object takes its address
# (nested-spawn). Each prints its one number on the serial interpreter,
# the parallel interpreter and the emitted binary, five runs apiece.
go build -o "$OUT/commuterun" ./cmd/commuterun
for APP in aux-loop hoist-escape nested-spawn; do
  SRC="internal/apps/src/dispatch/$APP.mc"
  DIR="$OUT/$APP"
  go run ./cmd/commutec -emit go -o "$DIR" "$SRC"
  (cd "$DIR" && go vet . && canonical && go build -o app .)
  "$OUT/commuterun" -mode serial -dump "$SRC" > "$OUT/$APP.interp"
  for RUN in 1 2 3 4 5; do
    "$OUT/commuterun" -mode parallel -workers 4 -dump "$SRC" > "$OUT/$APP.par"
    "$DIR/app" -mode parallel -workers 4 -dump > "$OUT/$APP.native"
    for GOT in par native; do
      if ! diff -q "$OUT/$APP.interp" "$OUT/$APP.$GOT" >/dev/null; then
        echo "FAIL: $APP (run $RUN): $GOT run diverges from the serial interpreter:" >&2
        diff "$OUT/$APP.interp" "$OUT/$APP.$GOT" | head >&2
        exit 1
      fi
    done
  done
  echo "$APP: serial interpreter == parallel interpreter == native, 5 runs"
done

# Water: its force and energy accumulations run on per-worker replicas
# of the global FBank and Sums (the four sites cmd/commutec's water
# golden reports), which each region's join folds back
# (TestEmitGoShippedPrograms checks the fold is emitted). The package
# vets (no lock copied by a fold), serial must be bit-identical, and
# parallel at one and four workers must run cleanly.
DIR="$OUT/water"
go run ./cmd/commutec -emit go -o "$DIR" -app water
(cd "$DIR" && go vet . && canonical && go build -o app .)
go run ./cmd/commuterun -mode serial -app water -dump > "$OUT/water.interp"
"$DIR/app" -mode serial -dump > "$OUT/water.native"
diff "$OUT/water.interp" "$OUT/water.native"
"$DIR/app" -mode parallel -workers 1 > /dev/null
"$DIR/app" -mode parallel -workers 4 > /dev/null
echo "water: serial native == interpreter; parallel ran clean at 1 and 4 workers"

echo "native smoke OK"
