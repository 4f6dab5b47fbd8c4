#!/usr/bin/env bash
# Smoke-gate for the distance oracle: Distance() must stay free. Runs
# bench_core_micro's distance benches at PROX_THREADS=1 and
# PROX_THREADS=$(nproc), stores/updates a baseline of the PROX_THREADS=1
# run, and fails when any bench of that run regresses more than 5% against
# that baseline. The oracle reduces its valuations on the calling thread,
# so the two runs do the same work; the second only shows how much a
# process-default pool that sits idle costs.
#
# Usage: scripts/bench_smoke.sh [build-dir]
#   BENCH_SMOKE_BASELINE   baseline JSON path
#                          (default: <build-dir>/bench_smoke_baseline.json)
#   BENCH_SMOKE_UPDATE=1   overwrite the baseline with this run and exit 0
set -euo pipefail

cd "$(dirname "$0")/.."

build_dir=${1:-build}
bench_bin="$build_dir/bench/bench_core_micro"
baseline=${BENCH_SMOKE_BASELINE:-$build_dir/bench_smoke_baseline.json}
filter='Distance'
threshold_pct=5

if [[ ! -x "$bench_bin" ]]; then
  echo "bench_smoke: $bench_bin not built (cmake --build $build_dir)" >&2
  exit 1
fi

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

max_threads=$(nproc)
echo "bench_smoke: serial run (PROX_THREADS=1)"
PROX_THREADS=1 "$bench_bin" \
  --benchmark_filter="$filter" \
  --benchmark_min_time=0.05 \
  --benchmark_format=json >"$tmpdir/serial.json"

echo "bench_smoke: parallel run (PROX_THREADS=$max_threads)"
PROX_THREADS=$max_threads "$bench_bin" \
  --benchmark_filter="$filter" \
  --benchmark_min_time=0.05 \
  --benchmark_format=json >"$tmpdir/parallel.json"

# Informational: the PROX_THREADS=1 run vs the PROX_THREADS=$(nproc) run
# per bench (both time the same calling-thread reduction).
jq -r -n \
  --slurpfile s "$tmpdir/serial.json" \
  --slurpfile p "$tmpdir/parallel.json" \
  --arg mt "$max_threads" '
  ($s[0].benchmarks | map({(.name): .cpu_time}) | add) as $serial |
  $p[0].benchmarks[] |
  "  \(.name): serial \($serial[.name] | floor)ns, " +
  "threads=\($mt) \(.cpu_time | floor)ns " +
  "(speedup \(($serial[.name] / .cpu_time * 100 | floor) / 100)x)"' \
  || true

if [[ ! -f "$baseline" || "${BENCH_SMOKE_UPDATE:-0}" == "1" ]]; then
  cp "$tmpdir/serial.json" "$baseline"
  echo "bench_smoke: wrote serial baseline to $baseline"
  exit 0
fi

# Gate: each serial bench within threshold of its baseline cpu_time.
failures=$(jq -r -n \
  --slurpfile base "$baseline" \
  --slurpfile now "$tmpdir/serial.json" \
  --argjson pct "$threshold_pct" '
  ($base[0].benchmarks | map({(.name): .cpu_time}) | add) as $b |
  $now[0].benchmarks[] |
  select($b[.name] != null) |
  select(.cpu_time > $b[.name] * (1 + $pct / 100)) |
  "  \(.name): \(.cpu_time | floor)ns vs baseline " +
  "\($b[.name] | floor)ns " +
  "(+\((.cpu_time / $b[.name] - 1) * 100 | floor)%)"')

if [[ -n "$failures" ]]; then
  echo "bench_smoke: serial (threads=1) regressions over ${threshold_pct}%:" >&2
  echo "$failures" >&2
  echo "bench_smoke: rerun with BENCH_SMOKE_UPDATE=1 to accept" >&2
  exit 1
fi

echo "bench_smoke: serial path within ${threshold_pct}% of baseline"
