#!/usr/bin/env bash
# Conditional-commutativity smoke: the analyzer must synthesize a guard
# for condhash, the guarded parallel run must be byte-identical to
# serial with the guard taking the parallel path, the guard-false
# variant must take the serial path, the native backend must agree with
# the interpreter under guards — and on every policy counter under all
# six -conditional x -speculate combinations — and the daemon must
# surface the structured condition tree.
#
# The shipped condhash has 8 buckets: its region is a few hundred cost
# units, under what a region costs to enter, so both runtimes decline it
# and say so (regions_declined). The legs that need a guard to be
# evaluated run the same table widened to 4096 buckets
# (scripts/wide_sources.sh).
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

. scripts/wide_sources.sh
wide_condhash 0 6 > "$OUT/wide0.mc"
wide_condhash 3 6 > "$OUT/wide3.mc"
grep -q 'NBUCKET = 4096' "$OUT/wide0.mc"

# Analysis: the widened table's root is above both entry costs (the
# shipped one's guards and declined root are cmd/commutec's condhash
# golden). Captured first: grep -q leaves at the match, and commutec has
# more to write.
WIDE=$(go run ./cmd/commutec "$OUT/wide0.mc")
echo "$WIDE" | grep -Eq 'root table::ingest +work [0-9]+$'
echo "analysis guards ok"

# -conditional asks for what only the parallel runtime does.
if go run ./cmd/commuterun -mode serial -conditional on -app condhash > /dev/null 2> "$OUT/usage.err"; then
  echo "-mode serial -conditional on was accepted" >&2
  exit 1
fi
grep -q -- '-conditional on requires -mode parallel' "$OUT/usage.err"

# Guard true (mode 0): parallel output byte-identical to serial, every
# region entry took the parallel path. -stats-json appends one stats
# line to stdout, so split program output from the trailing stats line.
go run ./cmd/commuterun -mode serial -stats-json "$OUT/wide0.mc" > "$OUT/serial.raw"
head -n -1 "$OUT/serial.raw" > "$OUT/serial.out"
go run ./cmd/commuterun -mode parallel -conditional on -workers 4 \
  -stats-json "$OUT/wide0.mc" > "$OUT/true.raw"
head -n -1 "$OUT/true.raw" > "$OUT/true.out"
tail -n 1 "$OUT/true.raw" > "$OUT/true.stats"
diff "$OUT/serial.out" "$OUT/true.out"
grep -Eq '"guard_parallel":[1-9]' "$OUT/true.stats"
if grep -Eq '"guard_serial":[1-9]' "$OUT/true.stats"; then
  echo "true guard took a serial path" >&2
  exit 1
fi
echo "guard-true parallel run ok"

# Guard false (mode 3): serial path, zero parallel regions, output
# still byte-identical to that program's serial run.
go run ./cmd/commuterun -mode serial -stats-json "$OUT/wide3.mc" > "$OUT/serial3.raw"
head -n -1 "$OUT/serial3.raw" > "$OUT/serial3.out"
go run ./cmd/commuterun -mode parallel -conditional on -workers 4 \
  -stats-json "$OUT/wide3.mc" > "$OUT/false.raw"
head -n -1 "$OUT/false.raw" > "$OUT/false.out"
tail -n 1 "$OUT/false.raw" > "$OUT/false.stats"
diff "$OUT/serial3.out" "$OUT/false.out"
grep -Eq '"guard_serial":[1-9]' "$OUT/false.stats"
# Zero-valued counters are omitted from the stats line, so the serial
# path shows no regions key at all.
if grep -Eq '"regions":[1-9]' "$OUT/false.stats"; then
  echo "false guard still created parallel regions" >&2
  exit 1
fi
echo "guard-false serial path ok"

# The shipped app: every one of its six region entries is declined, the
# run is the serial run, and no guard is evaluated.
go run ./cmd/commuterun -mode serial -app condhash -stats-json | head -n -1 > "$OUT/shipped.serial"
go run ./cmd/commuterun -mode parallel -conditional on -workers 4 -app condhash \
  -stats-json > "$OUT/shipped.raw"
head -n -1 "$OUT/shipped.raw" | diff "$OUT/shipped.serial" -
tail -n 1 "$OUT/shipped.raw" | grep -q '"regions_declined":6'
if tail -n 1 "$OUT/shipped.raw" | grep -Eq '"(regions|guard_parallel|guard_serial)":[1-9]'; then
  echo "the shipped condhash opened a region or evaluated a guard" >&2
  exit 1
fi
echo "shipped condhash: six regions declined ok"

# Native backend: the generated Go program evaluates the same guards
# and matches the interpreter's state dump byte for byte; the shipped
# app's package is its serial versions behind the declined counter. The
# emitter runs no formatter, so gofmt must have nothing to change in what
# it wrote, guard conditions included.
go run ./cmd/commutec -emit go -o "$OUT/native-shipped" -app condhash
go run ./cmd/commutec -emit go -o "$OUT/native-wide" "$OUT/wide0.mc"
for DIR in "$OUT/native-shipped" "$OUT/native-wide"; do
  (cd "$DIR" && go vet . && go build -o app .)
  UNFORMATTED=$(gofmt -l "$DIR")
  if [ -n "$UNFORMATTED" ]; then
    echo "FAIL: emitted files are not in gofmt's form: $UNFORMATTED" >&2
    exit 1
  fi
done
grep -q 'return 0 == G_H.F_mode$' "$OUT/native-wide/prog.go"
go run ./cmd/commuterun -mode serial -dump "$OUT/wide0.mc" > "$OUT/native.interp"
"$OUT/native-wide/app" -mode parallel -workers 4 -conditional -dump > "$OUT/native.out"
diff "$OUT/native.interp" "$OUT/native.out"
go run ./cmd/commuterun -mode serial -app condhash -dump > "$OUT/native.interp"
"$OUT/native-shipped/app" -mode parallel -workers 4 -conditional -dump > "$OUT/native.out"
diff "$OUT/native.interp" "$OUT/native.out"
if grep -q 'P_ingest' "$OUT/native-shipped/prog.go"; then
  echo "the shipped condhash's package still carries a parallel version of ingest" >&2
  exit 1
fi
echo "native guarded run ok"

# One plan, one rule: under each of the six policy combinations the
# interpreter (commuterun -stats-json) and the native binary count the
# same guard and speculation outcomes and the same declined regions —
# the shipped app declines all six entries under every combination, the
# wide table none. One worker, so whether a conflicting speculative
# region commits or aborts does not depend on timing. Zero-valued
# counters are omitted from the stats line.
go build -o "$OUT/commuterun" ./cmd/commuterun
stat_of() { grep -Eo "\"$1\":[0-9]+" "$2" | cut -d: -f2 || true; }
for PROG in shipped wide; do
  PROGARGS="-app condhash"
  DECLINED=6
  if [ "$PROG" = wide ]; then PROGARGS="$OUT/wide0.mc"; DECLINED=0; fi
  for COND in off on; do
    for SPEC in off auto force; do
      # shellcheck disable=SC2086
      "$OUT/commuterun" -mode parallel -workers 1 -conditional "$COND" -speculate "$SPEC" \
        -stats-json $PROGARGS | tail -n 1 > "$OUT/parity.interp"
      NATCOND=false
      if [ "$COND" = on ]; then NATCOND=true; fi
      "$OUT/native-$PROG/app" -mode parallel -workers 1 -conditional="$NATCOND" -speculate "$SPEC" \
        -guardstats -specstats > /dev/null 2> "$OUT/parity.native"
      for PAIR in guard_parallel:guard_parallel guard_serial:guard_serial regions_declined:regions_declined \
        speculative_regions:spec_regions speculation_commits:spec_commits speculation_aborts:spec_aborts; do
        WANT=$(stat_of "${PAIR%%:*}" "$OUT/parity.interp")
        GOT=$(awk -v k="${PAIR##*:}" '$1 == k { print $2 }' "$OUT/parity.native")
        if [ "${WANT:-0}" != "${GOT:-0}" ]; then
          echo "FAIL: $PROG -conditional $COND -speculate $SPEC: ${PAIR%%:*} = ${WANT:-0} on the interpreter, ${GOT:-0} natively" >&2
          exit 1
        fi
      done
      GOT=$(stat_of regions_declined "$OUT/parity.interp")
      if [ "${GOT:-0}" != "$DECLINED" ]; then
        echo "FAIL: $PROG -conditional $COND -speculate $SPEC: regions_declined != $DECLINED" >&2
        exit 1
      fi
    done
  done
done
echo "interpreter and native policy counters agree under all six combinations"

# Daemon: /v1/analyze surfaces the structured condition and guard.
ADDR=127.0.0.1:18090
BIN="$OUT/commuted"
go build -o "$BIN" ./cmd/commuted
"$BIN" -addr "$ADDR" &
PID=$!
cleanup() { kill "$PID" 2>/dev/null || true; rm -rf "$OUT"; }
trap cleanup EXIT
for _ in $(seq 1 100); do
  if curl -fs "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.1
done
ANALYZE=$(curl -fs -X POST "http://$ADDR/v1/analyze" -d '{"app":"condhash"}')
echo "$ANALYZE" | grep -q '"conditional_eligible":true'
echo "$ANALYZE" | grep -q '"condition_tree"'
echo "$ANALYZE" | grep -q '"guard_tree"'
# The built-in app's regions are declined; a guard is evaluated on the
# wide table, sent as source (it has no character JSON would escape but
# the line ends).
RUN=$(curl -fs -X POST "http://$ADDR/v1/run" \
  -d '{"app":"condhash","mode":"parallel","workers":4,"conditional":true}')
echo "$RUN" | grep -q '"regions_declined":6'
RUN=$(curl -fs -X POST "http://$ADDR/v1/run" \
  -d '{"source":"'"$(json_source < "$OUT/wide0.mc")"'","mode":"parallel","workers":4,"conditional":true}')
echo "$RUN" | grep -Eq '"guard_parallel":[1-9]'
RUN=$(curl -fs -X POST "http://$ADDR/v1/run" \
  -d '{"source":"'"$(json_source < "$OUT/wide3.mc")"'","mode":"parallel","workers":4,"conditional":true}')
echo "$RUN" | grep -Eq '"guard_serial":[1-9]'
curl -fs "http://$ADDR/statusz" > "$OUT/statusz"
grep -Eq '"guard_parallel":[1-9]' "$OUT/statusz"
grep -Eq '"regions_declined":[1-9]' "$OUT/statusz"
echo "daemon condition surface ok"

kill -TERM "$PID"
wait "$PID" || true
echo "cond smoke OK"
