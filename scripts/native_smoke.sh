#!/usr/bin/env bash
# Native-backend smoke: generate the Go package for Barnes-Hut and
# Water, vet, gofmt-check and build each, run them natively (serial and
# parallel), and diff the final state dumps against the serial
# interpreter byte for byte (Water's parallel accumulation order varies,
# so its parallel run only has to finish cleanly). The speculative leg emits
# the journaled packages for the speculation corpus and byte-diffs both
# the commit and the abort-and-rerun paths. The many-region leg enters
# 2000 guarded parallel regions on the one run-wide pool.
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
  for ARGS in "-mode serial" "-mode parallel -workers 4"; do
    # shellcheck disable=SC2086
    "$DIR/app" $ARGS -dump > "$OUT/$APP.native"
    if ! diff -q "$OUT/$APP.interp" "$OUT/$APP.native" >/dev/null; then
      echo "FAIL: $APP ($ARGS) native state diverges from the interpreter:" >&2
      diff "$OUT/$APP.interp" "$OUT/$APP.native" | head >&2
      exit 1
    fi
  done
  echo "$APP: native == interpreter (serial + parallel)"
done

# Speculation: the emitted packages carry the journaled speculative
# versions; check that both the commit path (specdisjoint: disjoint at run time, region
# commits) and the abort path (specconflict: guaranteed violation,
# rollback + serial rerun) reproduce the serial interpreter state byte
# for byte, and that the -specstats counters show the expected outcome.
for APP in specdisjoint specconflict; do
  DIR="$OUT/$APP"
  go run ./cmd/commutec -emit go -o "$DIR" -app "$APP"
  (cd "$DIR" && go vet . && canonical && go build -o app .)
  go run ./cmd/commuterun -mode serial -app "$APP" -dump > "$OUT/$APP.interp"
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
  echo "$APP: speculative native == interpreter (serial + force + auto), counters OK"
done

# Many regions: condhash mode 0 with 2000 rounds — every round a guarded
# parallel region (a GSS loop and two spawns) entered on the run-wide
# pool the first region started. Output and final state must match the
# serial interpreter, and every guard must have taken the parallel path.
ROUNDS=2000
{
  awk '/^const CondHashBase = `/{f=1;next} /^`/{f=0} f' internal/apps/src/cond.go
  printf 'void main() {\n  int r;\n  H.setup(0);\n  for (r = 0; r < %d; r += 1) {\n    H.ingest(r);\n  }\n  H.report();\n}\n' "$ROUNDS"
} > "$OUT/condhash.mc"
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
if ! grep -qx "guard_parallel $ROUNDS" "$OUT/condhash.stats"; then
  echo "FAIL: condhash x$ROUNDS: expected 'guard_parallel $ROUNDS' in counters:" >&2
  cat "$OUT/condhash.stats" >&2
  exit 1
fi
echo "condhash x$ROUNDS: native == interpreter over $ROUNDS regions on one pool, counters OK"

# Water: serial must be bit-identical; parallel must run cleanly.
DIR="$OUT/water"
go run ./cmd/commutec -emit go -o "$DIR" -app water
(cd "$DIR" && go vet . && canonical && go build -o app .)
go run ./cmd/commuterun -mode serial -app water -dump > "$OUT/water.interp"
"$DIR/app" -mode serial -dump > "$OUT/water.native"
diff "$OUT/water.interp" "$OUT/water.native"
"$DIR/app" -mode parallel -workers 4 > /dev/null
echo "water: serial native == interpreter; parallel ran clean"

echo "native smoke OK"
