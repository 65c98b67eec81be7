#!/usr/bin/env bash
# Server smoke: start commuted, verify liveness, one analyze+run
# round-trip against the quickstart corpus, a cache hit on the second
# identical request, then SIGTERM and a clean drain (exit 0).
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=127.0.0.1:18080
TMP=$(mktemp -d)
BIN=$TMP/commuted
PID=
# Every exit path stops the daemon, if it still runs, and removes TMP.
cleanup() {
  if [ -n "$PID" ]; then kill "$PID" 2>/dev/null || true; wait "$PID" 2>/dev/null || true; fi
  rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/commuted
"$BIN" -addr "$ADDR" &
PID=$!

# Wait for liveness.
for _ in $(seq 1 100); do
  if curl -fs "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.1
done
curl -fs "http://$ADDR/healthz" | grep -q '"ok"'
echo "healthz ok"

# Cold analyze misses; the second identical request must be a cache hit.
curl -fs -X POST "http://$ADDR/v1/analyze" -d '{"app":"quickstart"}' | grep -q '"cache":"miss"'
curl -fs -X POST "http://$ADDR/v1/analyze" -d '{"app":"quickstart"}' | grep -q '"cache":"hit"'
curl -fs "http://$ADDR/statusz" | grep -Eq '"cache_hits":[1-9]'
echo "analyze cache hit ok"

# /statusz splits load latency by cache outcome: after a miss and a
# hit, both recorders must have samples, and the warm path must not be
# slower than the cold path (the cold load runs the whole pipeline —
# parse, analysis, codegen, warm-up — the warm load is a cache lookup).
STATUS=$(curl -fs "http://$ADDR/statusz")
echo "$STATUS" | grep -q '"load-cold"'
echo "$STATUS" | grep -q '"load-warm"'
python3 - "$STATUS" <<'EOF'
import json, sys
st = json.loads(sys.argv[1])
cold = st["endpoints"]["load-cold"]
warm = st["endpoints"]["load-warm"]
assert cold["requests"] >= 1, f"no cold load recorded: {cold}"
assert warm["requests"] >= 1, f"no warm load recorded: {warm}"
assert warm["p50_ms"] <= cold["p50_ms"], \
    f"warm load p50 {warm['p50_ms']}ms slower than cold {cold['p50_ms']}ms"
EOF
echo "cold-vs-warm load latency ok"

# Run round-trip reuses the same cached system.
RUN=$(curl -fs -X POST "http://$ADDR/v1/run" \
  -d '{"app":"quickstart","mode":"parallel","workers":4}')
echo "$RUN" | grep -q '"cache":"hit"'
echo "$RUN" | grep -q '"regions":'
echo "run round-trip ok"

# A failed region is never re-run, and no request field asks for it.
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/v1/run" \
  -d '{"app":"quickstart","mode":"parallel","fallback":true}')
if [ "$CODE" != 400 ]; then
  echo "/v1/run with \"fallback\" answered $CODE, want 400" >&2
  exit 1
fi
echo "fallback field rejected ok"

# SIGTERM must drain and exit 0.
kill -TERM "$PID"
RC=0
wait "$PID" || RC=$?
PID= # reaped: cleanup must not signal a recycled pid
if [ "$RC" -ne 0 ]; then
  echo "commuted exited $RC on SIGTERM" >&2
  exit 1
fi
echo "clean drain ok"
echo "server smoke OK"
