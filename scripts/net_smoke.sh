#!/usr/bin/env bash
# Smoke test for the prox::net scale-out path (docs/NET.md), end to end
# through the shipped binaries:
#
#   1. prox_cli --save-snapshot writes one PROXSNAP file; three
#      prox_server replicas boot from it on --transport=epoll;
#   2. prox_router fronts them: 30 distinct summarize bodies fan out to
#      >= 2 replicas (X-Prox-Replica), and a repeated body lands on the
#      SAME replica as a byte-identical cache hit (the affinity
#      contract);
#   3. one replica is kill -9'd; a burst of idempotent GETs stays free
#      of 5xx — the router retries the dead replica's keys once on the
#      ring successor (prox_net_balancer_retry_total >= 1) and its
#      /healthz reports the replica unhealthy. The burst opens with GET
#      targets that were answered by that replica before the kill, and
#      the active prober runs only at router start, so the first of them
#      always reaches the dead replica and is retried;
#   4. SIGINT drains the router and the surviving replicas to exit 0.
#
# Usage: scripts/net_smoke.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."

build_dir=${1:-build}
cli_bin="$build_dir/examples/prox_cli"
server_bin="$build_dir/examples/prox_server"
router_bin="$build_dir/examples/prox_router"

for bin in "$cli_bin" "$server_bin" "$router_bin"; do
  if [[ ! -x "$bin" ]]; then
    echo "net_smoke: $bin not built (cmake --build $build_dir)" >&2
    exit 1
  fi
done

tmpdir=$(mktemp -d)
replica_pids=()
router_pid=
cleanup() {
  [[ -n "$router_pid" ]] && kill -9 "$router_pid" 2>/dev/null
  for pid in "${replica_pids[@]:-}"; do
    [[ -n "$pid" ]] && kill -9 "$pid" 2>/dev/null
  done
  rm -rf "$tmpdir"
}
trap cleanup EXIT

fail() {
  echo "net_smoke: FAIL: $*" >&2
  for log in "$tmpdir"/*.log; do
    echo "--- $log ---" >&2
    cat "$log" >&2
  done
  if [[ -n "${base:-}" ]]; then
    echo "--- router /metrics ---" >&2
    curl -s --max-time 5 "$base/metrics" >&2 || true
    echo "--- router /healthz ---" >&2
    curl -s --max-time 5 "$base/healthz" >&2 || true
  fi
  exit 1
}

# Waits for a server's listen line and echoes the bound port.
wait_port() {
  local log=$1 pid=$2 port=
  for _ in $(seq 1 200); do
    port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$log")
    [[ -n "$port" ]] && break
    kill -0 "$pid" 2>/dev/null || return 1
    sleep 0.05
  done
  [[ -n "$port" ]] && echo "$port"
}

# --- 1. shared snapshot + 3 epoll replicas ---------------------------------
snap="$tmpdir/dataset.snap"
"$cli_bin" --save-snapshot="$snap" >/dev/null || fail "save-snapshot failed"

replica_ports=()
for i in 0 1 2; do
  "$server_bin" --port=0 --transport=epoll --snapshot="$snap" --threads=2 \
    --cache-mb=16 >"$tmpdir/replica$i.log" 2>&1 &
  replica_pids[$i]=$!
  port=$(wait_port "$tmpdir/replica$i.log" "${replica_pids[$i]}") \
    || fail "replica $i never listened"
  replica_ports[$i]=$port
done
echo "net_smoke: replicas up on ${replica_ports[*]}"

# --- 2. router + consistent-hash fan-out -----------------------------------
# The prober runs once at start; its next round (10 min) is after the
# whole test, so every health transition below is passive detection.
"$router_bin" --port=0 \
  --replica=127.0.0.1:${replica_ports[0]} \
  --replica=127.0.0.1:${replica_ports[1]} \
  --replica=127.0.0.1:${replica_ports[2]} \
  --health-interval-ms=600000 >"$tmpdir/router.log" 2>&1 &
router_pid=$!
router_port=$(wait_port "$tmpdir/router.log" "$router_pid") \
  || fail "router never listened"
base="http://127.0.0.1:$router_port"
echo "net_smoke: router up on port $router_port"

declare -A replicas_seen
first_body='{"w_dist":0.2,"max_steps":4}'
first_replica=
for i in $(seq 1 30); do
  body="{\"w_dist\":0.$((i % 9 + 1)),\"max_steps\":$((3 + i % 8))}"
  code=$(curl -s -D "$tmpdir/h$i" -o "$tmpdir/b$i" -w '%{http_code}' \
           -X POST -d "$body" "$base/v1/summarize")
  [[ "$code" == 200 ]] || fail "summarize $i returned $code"
  grep -qi '^x-prox-cache: miss' "$tmpdir/h$i" || fail "summarize $i not a miss"
  replica=$(grep -i '^x-prox-replica:' "$tmpdir/h$i" | tr -d '\r' \
            | awk '{print $2}')
  [[ -n "$replica" ]] || fail "summarize $i carries no X-Prox-Replica"
  replicas_seen[$replica]=1
  [[ "$body" == "$first_body" ]] && first_replica=$replica
done
[[ ${#replicas_seen[@]} -ge 2 ]] \
  || fail "30 distinct bodies all landed on one replica"
echo "net_smoke: fan-out over ${#replicas_seen[@]} replicas"

# Affinity: the repeated body must land on the same replica, now warm,
# with byte-identical bytes.
code=$(curl -s -D "$tmpdir/repeat.h" -o "$tmpdir/repeat.json" \
         -w '%{http_code}' -X POST -d "$first_body" "$base/v1/summarize")
[[ "$code" == 200 ]] || fail "repeated summarize returned $code"
grep -qi '^x-prox-cache: hit' "$tmpdir/repeat.h" || fail "repeat not a hit"
repeat_replica=$(grep -i '^x-prox-replica:' "$tmpdir/repeat.h" | tr -d '\r' \
                 | awk '{print $2}')
[[ "$repeat_replica" == "$first_replica" ]] \
  || fail "repeat went to $repeat_replica, first went to $first_replica"
cmp -s "$tmpdir/b1" "$tmpdir/repeat.json" \
  || fail "cached repeat bytes differ from the cold body"

# --- 3. kill one replica => graceful degradation ---------------------------
# GET targets the replica about to die answers: the ring maps a target to
# the same replica after the kill, so each of them reaches the dead
# replica until the router marks it unhealthy.
dead_targets=()
for i in $(seq 1 200); do
  target="/v1/summary/groups?owner=$i"
  code=$(curl -s -D "$tmpdir/owner.h" -o /dev/null -w '%{http_code}' \
           "$base$target")
  [[ "$code" == 200 || "$code" == 404 ]] \
    || fail "GET $target returned $code before the kill"
  owner=$(grep -i '^x-prox-replica:' "$tmpdir/owner.h" | tr -d '\r' \
          | awk '{print $2}')
  [[ "$owner" == "$first_replica" ]] && dead_targets+=("$target")
  [[ ${#dead_targets[@]} -ge 3 ]] && break
done
[[ ${#dead_targets[@]} -ge 1 ]] \
  || fail "no GET target of 200 is answered by $first_replica"
echo "net_smoke: ${#dead_targets[@]} GET targets answered by $first_replica"

retries_before=$(curl -s "$base/metrics" \
  | sed -n 's/^prox_net_balancer_retry_total \([0-9]*\)$/\1/p')
[[ "$retries_before" == 0 ]] \
  || fail "prox_net_balancer_retry_total=$retries_before before the kill"

dead_port=${first_replica##*:}
dead_index=
for i in 0 1 2; do
  [[ "${replica_ports[$i]}" == "$dead_port" ]] && dead_index=$i
done
[[ -n "$dead_index" ]] || fail "could not map $first_replica to a pid"
kill -9 "${replica_pids[$dead_index]}"
wait "${replica_pids[$dead_index]}" 2>/dev/null || true
replica_pids[$dead_index]=
echo "net_smoke: killed replica $dead_index (127.0.0.1:$dead_port)"

# Idempotent GET burst: the dead replica's targets first, then distinct
# targets spread over the whole ring. Every answer must be an HTTP answer
# (200 for the real route, 404 for probe targets) — never a 5xx: the
# router replays the dead replica's keys once on the ring successor.
burst=("${dead_targets[@]}" "/v1/summary/groups")
for i in $(seq 2 20); do
  burst+=("/v1/summary/groups?probe=$i")
done
for target in "${burst[@]}"; do
  code=$(curl -s -o /dev/null -w '%{http_code}' "$base$target")
  [[ "$code" == 200 || "$code" == 404 ]] \
    || fail "GET $target returned $code after replica kill"
done

curl -s "$base/metrics" >"$tmpdir/router_metrics.txt"
retries=$(sed -n 's/^prox_net_balancer_retry_total \([0-9]*\)$/\1/p' \
          "$tmpdir/router_metrics.txt")
[[ -n "$retries" && "$retries" -ge 1 ]] \
  || fail "no retries recorded (prox_net_balancer_retry_total=$retries)"

curl -s "$base/healthz" >"$tmpdir/router_health.json"
grep -q '"healthy":false' "$tmpdir/router_health.json" \
  || fail "router /healthz never marked the dead replica unhealthy"
echo "net_smoke: burst survived the kill (retries=$retries, zero 5xx)"

# --- 4. graceful drain ------------------------------------------------------
kill -INT "$router_pid"
router_exit=0
wait "$router_pid" || router_exit=$?
[[ $router_exit -eq 0 ]] || fail "router exited $router_exit after SIGINT"
grep -q "drained" "$tmpdir/router.log" || fail "router never logged the drain"
router_pid=

for i in 0 1 2; do
  pid=${replica_pids[$i]}
  [[ -z "$pid" ]] && continue
  kill -INT "$pid"
  replica_exit=0
  wait "$pid" || replica_exit=$?
  [[ $replica_exit -eq 0 ]] || fail "replica $i exited $replica_exit"
  grep -q "drained" "$tmpdir/replica$i.log" \
    || fail "replica $i never logged the drain"
  replica_pids[$i]=
done

echo "net_smoke: OK (snapshot fan-out, affinity hit, kill survived, drains)"
