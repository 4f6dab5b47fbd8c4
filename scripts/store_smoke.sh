#!/usr/bin/env bash
# Smoke test for the prox::store snapshot subsystem (docs/STORE.md), end
# to end through the shipped binaries:
#
#   1. prox_cli --save-snapshot writes a PROXSNAP file;
#   2. a bit-flipped copy must be REJECTED with a typed store error that
#      names the damaged section (fail closed, exit non-zero);
#   3. the pristine file boots prox_cli byte-identically to the generator;
#   4. prox_server --snapshot --cache-persist drains a warm cache to disk
#      on SIGINT, and a restarted server answers its FIRST summarize from
#      that cache (X-Prox-Cache: hit) with the same bytes.
#
# Usage: scripts/store_smoke.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."

build_dir=${1:-build}
cli_bin="$build_dir/examples/prox_cli"
server_bin="$build_dir/examples/prox_server"

for bin in "$cli_bin" "$server_bin"; do
  if [[ ! -x "$bin" ]]; then
    echo "store_smoke: $bin not built (cmake --build $build_dir)" >&2
    exit 1
  fi
done

tmpdir=$(mktemp -d)
server_pid=
cleanup() {
  [[ -n "$server_pid" ]] && kill -9 "$server_pid" 2>/dev/null
  rm -rf "$tmpdir"
}
trap cleanup EXIT

fail() {
  echo "store_smoke: FAIL: $*" >&2
  for log in "$tmpdir"/server.log "$tmpdir"/*.h; do
    [[ -f "$log" ]] || continue
    echo "--- $log ---" >&2
    cat "$log" >&2
  done
  exit 1
}

snap="$tmpdir/dataset.snap"

# --- 1. save ---------------------------------------------------------------
"$cli_bin" --save-snapshot="$snap" >/dev/null || fail "save-snapshot exited $?"
[[ -s "$snap" ]] || fail "snapshot file is empty"
head -c 8 "$snap" | grep -q 'PROXSNAP' || fail "snapshot lacks PROXSNAP magic"

# --- 2. corrupt => typed rejection ----------------------------------------
cp "$snap" "$tmpdir/corrupt.snap"
size=$(stat -c %s "$tmpdir/corrupt.snap")
# Flip one bit inside the first section's payload (sections start right
# after the 64-byte header; zero padding between sections is intentionally
# not sealed, so a mid-file offset could land on a don't-care byte).
mid=72
[[ "$size" -gt $((mid + 1)) ]] || fail "snapshot too small"
orig=$(dd if="$tmpdir/corrupt.snap" bs=1 skip="$mid" count=1 2>/dev/null \
       | od -An -tu1 | tr -d ' ')
printf "$(printf '\\%03o' $((orig ^ 0x10)))" \
  | dd of="$tmpdir/corrupt.snap" bs=1 seek="$mid" conv=notrunc 2>/dev/null

load_exit=0
printf 'quit\n' | "$cli_bin" --load-snapshot="$tmpdir/corrupt.snap" \
  >"$tmpdir/corrupt.out" 2>&1 || load_exit=$?
[[ $load_exit -ne 0 ]] || fail "corrupt snapshot was accepted"
grep -q 'store error kChecksum \[' "$tmpdir/corrupt.out" \
  || fail "rejection is not a typed checksum error naming a section:
$(cat "$tmpdir/corrupt.out")"
echo "store_smoke: corrupt snapshot rejected:" \
     "$(grep -o 'store error[^"]*' "$tmpdir/corrupt.out" | head -1)"

# --- 3. pristine file loads byte-identically -------------------------------
script='selectall
summarize 0.7 5
quit
'
echo "$script" | "$cli_bin" --json >"$tmpdir/generated.out" \
  || fail "generator CLI run failed"
echo "$script" | "$cli_bin" --json --load-snapshot="$snap" \
  >"$tmpdir/loaded.out" || fail "snapshot CLI run failed"
# Compare the summarize JSON lines (prompts and banners differ by design).
sed -n 's/^prox> {/{/p' "$tmpdir/generated.out" >"$tmpdir/generated.json"
sed -n 's/^prox> {/{/p' "$tmpdir/loaded.out" >"$tmpdir/loaded.json"
[[ -s "$tmpdir/generated.json" ]] || fail "generator run produced no JSON"
cmp -s "$tmpdir/generated.json" "$tmpdir/loaded.json" \
  || fail "snapshot summarize differs from generator summarize"

# --- 4. warm restart through prox_server -----------------------------------
start_server() {
  "$server_bin" --port=0 --threads=2 "$@" >"$tmpdir/server.log" 2>&1 &
  server_pid=$!
  port=
  for _ in $(seq 1 200); do
    port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
             "$tmpdir/server.log")
    [[ -n "$port" ]] && break
    kill -0 "$server_pid" 2>/dev/null || fail "server died during startup:
$(cat "$tmpdir/server.log")"
    sleep 0.05
  done
  [[ -n "$port" ]] || fail "server never printed its listen line"
}

req='{"w_dist":0.7,"max_steps":5}'
persisted="$tmpdir/persisted.snap"

start_server --snapshot="$snap" --cache-persist="$persisted"
code=$(curl -s -D "$tmpdir/first.h" -o "$tmpdir/first.json" \
         -w '%{http_code}' -X POST -d "$req" \
         "http://127.0.0.1:$port/v1/summarize") || true
[[ "$code" == 200 ]] || fail "summarize on snapshot boot returned $code"
grep -qi '^x-prox-cache: miss' "$tmpdir/first.h" \
  || fail "first-process summarize was not a miss"
kill -INT "$server_pid"
server_exit=0
wait "$server_pid" || server_exit=$?
[[ $server_exit -eq 0 ]] \
  || fail "server exited $server_exit after SIGINT"
server_pid=
[[ -s "$persisted" ]] || fail "server did not persist a snapshot on drain"

start_server --snapshot="$persisted"
code=$(curl -s -D "$tmpdir/warm.h" -o "$tmpdir/warm.json" \
         -w '%{http_code}' -X POST -d "$req" \
         "http://127.0.0.1:$port/v1/summarize") || true
[[ "$code" == 200 ]] || fail "summarize on warm restart returned $code"
grep -qi '^x-prox-cache: hit' "$tmpdir/warm.h" \
  || fail "restarted server's FIRST summarize was not a cache hit"
cmp -s "$tmpdir/first.json" "$tmpdir/warm.json" \
  || fail "warm restart body differs from the original computation"
kill -INT "$server_pid"
server_exit=0
wait "$server_pid" || server_exit=$?
[[ $server_exit -eq 0 ]] \
  || fail "restarted server exited $server_exit after SIGINT"
server_pid=

echo "store_smoke: OK (save, typed corrupt rejection, byte-identical" \
     "load, warm restart hit)"
