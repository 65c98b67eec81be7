#!/usr/bin/env bash
# Server smoke: start commuted, verify liveness, one analyze+run
# round-trip against the quickstart corpus, a cache hit on the second
# identical request, then SIGTERM and a clean drain (exit 0).
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=127.0.0.1:18080
BIN=$(mktemp -d)/commuted

go build -o "$BIN" ./cmd/commuted
"$BIN" -addr "$ADDR" &
PID=$!
cleanup() { kill "$PID" 2>/dev/null || true; }
trap cleanup EXIT

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

# Speculation: the analysis rejects specdisjoint's fill extent but
# scores it with a fractional confidence and marks it eligible.
ANALYZE=$(curl -fs -X POST "http://$ADDR/v1/analyze" -d '{"app":"specdisjoint"}')
echo "$ANALYZE" | grep -q '"speculation_eligible":true'
echo "$ANALYZE" | grep -Eq '"confidence":0\.[0-9]+'
echo "analyze confidence ok"

# The built-in demonstrators' regions are a few hundred cost units,
# under what a region costs to enter: even forced, the run declines
# them and says so.
RUN=$(curl -fs -X POST "http://$ADDR/v1/run" \
  -d '{"app":"specdisjoint","mode":"parallel","workers":4,"speculate":"force"}')
echo "$RUN" | grep -q '"regions_declined":1'
if echo "$RUN" | grep -q '"speculative_regions"'; then
  echo "a region under the granularity cutoff was speculated" >&2
  exit 1
fi
# What speculates is each demonstrator widened past the cutoff — the
# shipped text with N at 4096, and for the conflict 4096 more mark calls
# (scripts/wide_sources.sh) — sent as source.
. scripts/wide_sources.sh
DISJOINT=$(wide_disjoint | json_source)
CONFLICT=$(wide_conflict | json_source)
echo "$DISJOINT" | grep -q 'N = 4096'
echo "$CONFLICT" | grep -q 'mark(0)'
# A runtime-disjoint rejected extent commits speculatively...
RUN=$(curl -fs -X POST "http://$ADDR/v1/run" \
  -d '{"source":"'"$DISJOINT"'","mode":"parallel","workers":4,"speculate":"force"}')
echo "$RUN" | grep -Eq '"speculation_commits":[1-9]'
# ...and a genuinely conflicting one aborts, reruns serially, and still
# produces the serial output.
RUN=$(curl -fs -X POST "http://$ADDR/v1/run" \
  -d '{"source":"'"$CONFLICT"'","mode":"parallel","workers":4,"speculate":"force"}')
echo "$RUN" | grep -Eq '"speculation_aborts":[1-9]'
echo "$RUN" | grep -q '"output":"2 3\\n"'
# Both counters surface in /statusz.
STATUS=$(curl -fs "http://$ADDR/statusz")
echo "$STATUS" | grep -Eq '"speculation_commits":[1-9]'
echo "$STATUS" | grep -Eq '"speculation_aborts":[1-9]'
echo "$STATUS" | grep -Eq '"regions_declined":[1-9]'
echo "speculation ok"

# SIGTERM must drain and exit 0.
kill -TERM "$PID"
if wait "$PID"; then
  echo "clean drain ok"
else
  echo "commuted exited non-zero on SIGTERM" >&2
  exit 1
fi
trap - EXIT
echo "server smoke OK"
