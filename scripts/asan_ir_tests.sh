#!/usr/bin/env bash
# Configure a dedicated AddressSanitizer build (-DPROX_SANITIZE=address)
# and run the prox::ir and prox::store suites under ASan: the
# TermPool/expression unit tests (`ir` label), the batch-kernel units
# (`ir` label too — the kernels walk borrowed monomial spans into the
# TermPool arena), the IR and batch-kernel golden byte-identity suites
# (frozen outcomes in tests/ir/golden/), the projected-batch suite (the
# group-slot remap folds base blocks through a per-call slot table) and
# the step-pricing suites (the rows a merge moves are lowered into
# per-thread arenas and spliced among the kept rows, folds resume from the
# step's checkpoints, cached terms copied between a run's steps) and the
# moved-size suite (`MovedSizeTest`: sizes counted over borrowed pool
# spans, checked against the lowered rows),
# the drawn Monte-Carlo set's suites (`SampledValuations*`,
# `SamplingEpsilonTest`: thousands of drawn valuations packed into the
# oracle's 8-lane blocks), the
# snapshot container/corruption suites
# (`store` label), and the streaming ingest suites (`ingest` label —
# ApplyBatch appends into the interned TermPool arena and the warm-start
# maintainer replays borrowed mapping state, docs/INGEST.md), plus the
# engine facade and C-ABI suites (`engine` label — the flat boundary
# hands malloc'd strings across an allocator seam and must reject
# use-after-close without touching freed memory, docs/EMBEDDING.md),
# and the s-expression reader's suites (`IoTest`, `ParserFuzzTest` in
# prox_provenance_test — the reader parses untrusted text and appends
# rows straight into a fresh TermPool), and the reference differential
# suite (`ReferenceDifferential*` in prox_reference_test: Summarizer::Run
# against the naive Algorithm 1 of tests/testing/reference_summarizer.h
# over seeded random cases), once at its tier-1 budget through CTest and
# once more over 1,000 seeds through the binary's --reference-cases.
# The IR core hands out raw spans into a shared arena
# and resolves overlay-tagged 32-bit ids against two pools; the store
# layer parses attacker-shaped bytes out of an mmap — exactly the kind of
# code where a stale view, a mis-tagged id, or a lying length turns into
# silent corruption; under ASan it turns into a report instead.
# Fail-closed must never mean fail-by-UB.
#
# The build keeps its Release optimization but leaves NDEBUG undefined, so
# every assert runs: the remap and pack preconditions of the distance
# oracle, the fold pass's check that a unit lowers to the size the shape
# pass counted, the carried step's checks that its annotation list equals
# CollectAnnotations' and that a carried merge shapes to its carried size
# (docs/KERNELS.md, *Carried steps*).
#
# Usage: scripts/asan_ir_tests.sh [build-dir]   (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."

build_dir=${1:-build-asan}

cmake -B "$build_dir" -S . \
  -DPROX_SANITIZE=address \
  -DCMAKE_CXX_FLAGS_RELEASE=-O2 \
  -DPROX_BUILD_BENCHMARKS=OFF \
  -DPROX_BUILD_EXAMPLES=OFF
cmake --build "$build_dir" \
  --target prox_ir_test prox_ir_golden_test prox_kernels_test \
  prox_summarize_test \
  prox_kernels_golden_test prox_store_test prox_ingest_test \
  prox_engine_test prox_capi_test prox_provenance_test prox_reference_test \
  -j "$(nproc)"
ctest --test-dir "$build_dir" -L ir --output-on-failure
ctest --test-dir "$build_dir" -L store --output-on-failure
ctest --test-dir "$build_dir" -L ingest --output-on-failure
ctest --test-dir "$build_dir" -L engine --output-on-failure
ctest --test-dir "$build_dir" \
  -R 'GoldenIdentityTest|GoldenKernelsTest|ProjectedBatchTest|StepPricing|MovedSize|SampledValuations|SamplingEpsilon|ReferenceDifferential' \
  --output-on-failure
ctest --test-dir "$build_dir" -R '^(IoTest|(Seeds/)?ParserFuzzTest)[.]' \
  --output-on-failure
"$build_dir"/tests/prox_reference_test --reference-cases=1000
