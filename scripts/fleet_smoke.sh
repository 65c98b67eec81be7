#!/usr/bin/env bash
# Fleet smoke: boot three commuted replicas sharing a blob directory
# plus a commutefleet router, then assert the fleet behaviors end to
# end: deterministic fingerprint routing, warm artifact adoption on a
# cold replica (no re-analysis), a clean reroute after SIGTERM of one
# shard, and the one health rule: a shard marked down stays down until
# a /healthz probe succeeds.
set -euo pipefail
cd "$(dirname "$0")/.."

BASE=127.0.0.1
R1=$BASE:18181
R2=$BASE:18182
R3=$BASE:18183
ROUTER=$BASE:18180

TMP=$(mktemp -d)
BLOBS=$TMP/artifacts
# Every exit path stops the daemons and removes TMP, binaries and blob
# directory alike. Waiting first means no daemon still writes there.
cleanup() {
  kill $(jobs -p) 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT
go build -o "$TMP/commuted" ./cmd/commuted
go build -o "$TMP/commutefleet" ./cmd/commutefleet

"$TMP/commuted" -addr "$R1" -blob-dir "$BLOBS" & PID1=$!
"$TMP/commuted" -addr "$R2" -blob-dir "$BLOBS" & PID2=$!
"$TMP/commuted" -addr "$R3" -blob-dir "$BLOBS" & PID3=$!
"$TMP/commutefleet" -addr "$ROUTER" \
  -shards "http://$R1,http://$R2,http://$R3" &

wait_healthy() {
  for _ in $(seq 1 100); do
    if curl -fs "http://$1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "no healthz from $1" >&2
  return 1
}
for a in "$R1" "$R2" "$R3" "$ROUTER"; do wait_healthy "$a"; done
echo "fleet up (3 replicas + router)"

# --- Deterministic routing: the same program must land on the same
# shard every time. Five requests for one fingerprint must leave
# exactly one shard with a non-zero analyze count.
for _ in $(seq 1 5); do
  curl -fs -X POST "http://$ROUTER/v1/analyze" -d '{"app":"quickstart"}' >/dev/null
done
OWNERS=0
for a in "$R1" "$R2" "$R3"; do
  N=$(curl -fs "http://$a/statusz" | python3 -c \
    'import json,sys; print(json.load(sys.stdin)["endpoints"]["analyze"]["requests"])')
  if [ "$N" -gt 0 ]; then OWNERS=$((OWNERS+1)); OWNER_ADDR=$a; fi
done
if [ "$OWNERS" -ne 1 ]; then
  echo "deterministic routing broken: $OWNERS shards served one fingerprint" >&2
  exit 1
fi
echo "deterministic routing ok (owner $OWNER_ADDR)"

# --- Warm adoption: ask every NON-owner replica directly for the same
# program. Each must answer from the owner's published artifact —
# cache "adopt", an adoption counter tick, and zero cold loads.
for a in "$R1" "$R2" "$R3"; do
  [ "$a" = "$OWNER_ADDR" ] && continue
  RESP=$(curl -fs -X POST "http://$a/v1/analyze" -d '{"app":"quickstart"}')
  echo "$RESP" | grep -q '"cache":"adopt"' || {
    echo "replica $a did not adopt: $RESP" >&2; exit 1; }
  ST=$(curl -fs "http://$a/statusz")
  echo "$ST" | grep -Eq '"cache_adoptions":[1-9]' || {
    echo "replica $a adoption counter missing" >&2; exit 1; }
  COLD=$(echo "$ST" | python3 -c \
    'import json,sys; print(json.load(sys.stdin)["endpoints"]["load-cold"]["requests"])')
  if [ "$COLD" -ne 0 ]; then
    echo "replica $a re-analyzed instead of adopting ($COLD cold loads)" >&2
    exit 1
  fi
done
curl -fs "http://$OWNER_ADDR/statusz" | grep -Eq '"artifacts_published":[1-9]' || {
  echo "owner never published its artifact" >&2; exit 1; }
echo "warm adoption ok (no re-analysis on cold replicas)"

# --- Reroute after shard death: SIGTERM the owner; the same program
# must keep answering 200 through the router, and the router's
# counters must show the reroute. The prober probes the dead shard
# once a second; 1.5 s later it has probed at least once, and the shard
# is still down.
kill -TERM "$(eval echo \$PID"$(case $OWNER_ADDR in $R1) echo 1;; $R2) echo 2;; $R3) echo 3;; esac)")"
sleep 0.5
for i in $(seq 1 5); do
  CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
    "http://$ROUTER/v1/analyze" -d '{"app":"quickstart"}')
  if [ "$CODE" != "200" ]; then
    echo "request $i after shard death = $CODE, want 200" >&2
    exit 1
  fi
done
sleep 1.5
RST=$(curl -fs "http://$ROUTER/statusz")
python3 - "$OWNER_ADDR" "$RST" <<'EOF'
import json, sys
st = json.loads(sys.argv[2])
owner = "http://" + sys.argv[1]
shards = st["shards"]
dead = shards[owner]
assert dead["down"], f"dead shard not marked down: {dead}"
assert dead["rerouted"] >= 1, f"no reroutes recorded off the dead shard: {dead}"
assert dead.get("probes", 0) >= 1, f"the prober never probed the dead shard: {dead}"
live_requests = sum(s["requests"] for url, s in shards.items() if url != owner)
assert live_requests >= 5, f"survivors served {live_requests} requests, want >=5"
EOF
echo "reroute after SIGTERM ok (dead shard probed, still down)"

# Router healthz stays green with two of three shards.
curl -fs "http://$ROUTER/healthz" | grep -q '"ok"'
echo "fleet smoke OK"
