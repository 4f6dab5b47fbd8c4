#!/usr/bin/env bash
# Configure a dedicated ThreadSanitizer build (-DPROX_SANITIZE=thread) and
# run every CTest carrying the `tsan` label — the exec pool suite, the
# end-to-end determinism suite, the serving-contract loopback suite
# (including ReadsAreAnsweredWhileAColdRunIsInFlight: /healthz and cached
# summarize hits read the published serving key while a cold run holds
# the engine mutex, and a returned select is visible to the next read),
# the request-tracing loopback suite, the ingest loopback suite
# (concurrent POST /v1/ingest writers vs summarize readers over one
# session, docs/INGEST.md), the
# IR golden byte-identity suite against tests/ir/golden/ (worker-overlay
# Apply at threads {1,8}), the batch-kernel golden, projected-batch and
# step-pricing suites (thread-local valuation blocks and projected base
# blocks where MaterializeMerges calls Distance on exec workers; fold-pass
# workers read the step's shared blocks, row masks, fold checkpoints,
# terms, shape buffers and cross-step cache, docs/KERNELS.md), the
# bounded-step suite (round-2 folds on exec workers read the shape
# buffers the calling thread filled and write their own entries, at
# threads {1,8}), the
# snapshot-serving suite (docs/STORE.md), and the epoll transport loopback
# suite (event-loop shards + handler pool + frozen wire goldens,
# docs/NET.md) — under TSan. It also builds prox_reference_test and runs
# the reference differential seeds that draw threads=4 (fold passes and
# bounded folds on exec workers, compared with the naive Algorithm 1 of
# tests/testing/reference_summarizer.h).
#
# The target list is read from tests/CMakeLists.txt: every executable
# whose gtest_discover_tests() carries `LABELS tsan` is built. A suite
# that is not built registers only an unlabelled `<target>_NOT_BUILT`
# placeholder, which `ctest -L tsan` would skip without a word, so the
# script fails if any such placeholder remains.
#
# As in scripts/asan_ir_tests.sh, the build leaves NDEBUG undefined, so
# every assert runs on the exec workers too.
#
# Usage: scripts/tsan_exec_tests.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."

build_dir=${1:-build-tsan}

mapfile -t targets < <(tr '\n' ' ' < tests/CMakeLists.txt \
  | grep -oE 'gtest_discover_tests\([A-Za-z0-9_]+[^)]*LABELS tsan\)' \
  | sed -E 's/gtest_discover_tests\(([A-Za-z0-9_]+).*/\1/')
if [[ ${#targets[@]} -eq 0 ]]; then
  echo "tsan_exec_tests: no tsan-labelled targets found" >&2
  exit 1
fi
targets+=(prox_reference_test)
echo "tsan_exec_tests: building ${targets[*]}"

cmake -B "$build_dir" -S . \
  -DPROX_SANITIZE=thread \
  -DCMAKE_CXX_FLAGS_RELEASE=-O2 \
  -DPROX_BUILD_BENCHMARKS=OFF \
  -DPROX_BUILD_EXAMPLES=OFF
cmake --build "$build_dir" --target "${targets[@]}" -j "$(nproc)"

pattern=$(IFS='|'; echo "${targets[*]}")
not_built=$(ctest --test-dir "$build_dir" -N \
  | grep -oE "\b($pattern)_NOT_BUILT\b" || true)
if [[ -n "$not_built" ]]; then
  echo "tsan_exec_tests: suites not built: $not_built" >&2
  exit 1
fi
ctest --test-dir "$build_dir" -L tsan --output-on-failure
"$build_dir"/tests/prox_reference_test --reference-threads=4
