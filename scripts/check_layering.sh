#!/usr/bin/env bash
# The engine/transport seam, enforced (docs/EMBEDDING.md):
#
#   1. prox::serve is pure transport. No file under src/serve may include
#      engine-internal headers (engine/codec.h, engine/summary_cache.h,
#      engine/engine_metrics.h) or anything below the facade (service/,
#      summarize/, ingest/, ir/, store/). The only engine header the
#      transport may see is engine/engine.h.
#   2. include/prox_c.h is C-clean: it must compile as pure C11, no
#      C++-isms, no missing includes.
#   3. libprox_c.so exports only prox_* symbols: the version script and
#      --exclude-libs must keep the statically linked C++ engine out of
#      the dynamic symbol table.
#   4. One provenance representation (docs/IR.md): no `use_ir` switch,
#      and none of the retired pointer-tree builders or their facades
#      (`AggregateExpression`, `DdpExpression`, `PolynomialExpression`,
#      `AggregateFacade`, `DdpFacade`, `TensorTerm`) under src/, tests/,
#      bench/ or examples/: producers append straight into prox::ir.
#   5. One candidate-pricing path (docs/KERNELS.md): the batch kernels
#      price every candidate, so no `IncrementalScorer`,
#      `summarize/incremental.h` or `SummarizerOptions::Incremental`
#      under src/, tests/, bench/ or examples/.
#   6. One distance oracle (docs/KERNELS.md): Monte-Carlo sampling is a
#      valuation class (SampledValuations), so src/summarize/distance.h
#      declares no `SampledDistance` and no `virtual` member.
#
# Usage: scripts/check_layering.sh [build-dir]
# The symbol check is skipped (with a note) when no build dir is given or
# the shared library has not been built there.
set -uo pipefail

cd "$(dirname "$0")/.."

build_dir=${1:-}
failures=0

note() { printf 'check_layering: %s\n' "$*"; }
fail() {
  printf 'check_layering: FAIL %s\n' "$*" >&2
  failures=$((failures + 1))
}

# --- 1. serve is pure transport ------------------------------------------
forbidden='^#include "(service|summarize|ingest|ir|store|capi)/'
offenders=$(grep -rEn "$forbidden" src/serve || true)
if [[ -n "$offenders" ]]; then
  fail "src/serve includes engine-internal layers:"
  printf '%s\n' "$offenders" >&2
fi

offenders=$(grep -rn '#include "engine/' src/serve | grep -v 'engine/engine\.h' || true)
if [[ -n "$offenders" ]]; then
  fail "src/serve includes engine internals (only engine/engine.h is allowed):"
  printf '%s\n' "$offenders" >&2
fi
note "serve include lint: OK (transport sees only engine/engine.h)"

# --- 1b. net is pure transport too ----------------------------------------
# prox::net (event loop + balancer) sits beside serve: it may include
# net/, serve/, exec/, obs/ and common/ — never the engine or anything
# below it. Handlers are opaque std::functions; the loop cannot know what
# they compute.
offenders=$(grep -rhn '#include "' src/net \
  | grep -vE '#include "(net|serve|exec|obs|common)/' || true)
if [[ -n "$offenders" ]]; then
  fail "src/net includes layers below the transport seam:"
  printf '%s\n' "$offenders" >&2
fi
note "net include lint: OK (event loop sees only serve/exec/obs/common)"

# --- 1c. every socket send is SIGPIPE-proof -------------------------------
# A peer that closes mid-write must surface as EPIPE, never as a
# process-killing SIGPIPE: every send(2) in the transport layers carries
# MSG_NOSIGNAL (docs/NET.md). The char class keeps string literals like
# "send(): " out of the match.
offenders=$(grep -rn '[^a-zA-Z_.:"]send(' src/serve src/net examples \
  | grep -v MSG_NOSIGNAL || true)
if [[ -n "$offenders" ]]; then
  fail "socket send() without MSG_NOSIGNAL:"
  printf '%s\n' "$offenders" >&2
fi
note "MSG_NOSIGNAL lint: OK (no raw socket sends)"

# --- 2. prox_c.h is pure C11 ---------------------------------------------
c_compiler=${CC:-cc}
if command -v "$c_compiler" >/dev/null 2>&1; then
  if ! "$c_compiler" -std=c11 -pedantic-errors -Wall -Wextra -Werror \
      -x c -fsyntax-only include/prox_c.h; then
    fail "include/prox_c.h does not compile as pure C11"
  else
    note "prox_c.h C11 syntax check: OK"
  fi
else
  note "no C compiler found; skipping prox_c.h C11 check"
fi

# --- 3. libprox_c.so exports only prox_* ---------------------------------
shared_lib=""
if [[ -n "$build_dir" ]]; then
  shared_lib=$(find "$build_dir" -name 'libprox_c.so*' -type f 2>/dev/null \
    | head -n 1)
fi
if [[ -n "$shared_lib" ]] && command -v nm >/dev/null 2>&1; then
  # Dynamic, defined, global symbols. Version-definition tags (PROX_C_1,
  # type A) and the linker's bookkeeping symbols are not API surface.
  leaked=$(nm -D --defined-only "$shared_lib" \
    | awk '$2 != "A" && $2 != "a" { print $3 }' \
    | grep -vE '^(prox_|__bss_start$|_edata$|_end$|_fini$|_init$)' || true)
  if [[ -n "$leaked" ]]; then
    fail "libprox_c.so leaks non-prox_ symbols:"
    printf '%s\n' "$leaked" >&2
  else
    note "libprox_c.so symbol surface: OK (prox_* only)"
  fi
  exported=$(nm -D --defined-only "$shared_lib" | grep -c ' prox_' || true)
  if [[ "$exported" -lt 10 ]]; then
    fail "libprox_c.so exports only $exported prox_* symbols (expected the full ABI)"
  fi
else
  note "libprox_c.so not found under '${build_dir:-<none>}'; skipping symbol check"
fi

# --- 4. one provenance representation ------------------------------------
# Every producer appends rows straight into the prox::ir builders; the
# pointer-tree builders and their virtual facades must not come back.
# -w matches whole words, so IrAggregateExpression and its siblings pass.
representation_ok=1
offenders=$(grep -rnw 'use_ir' src tests bench examples || true)
if [[ -n "$offenders" ]]; then
  fail "use_ir is back (the summarizer runs one representation):"
  printf '%s\n' "$offenders" >&2
  representation_ok=0
fi
offenders=$(grep -rnwE \
    'AggregateExpression|DdpExpression|PolynomialExpression|AggregateFacade|DdpFacade|TensorTerm' \
    src tests bench examples || true)
if [[ -n "$offenders" ]]; then
  fail "a pointer-tree builder or facade is back (producers append into prox::ir):"
  printf '%s\n' "$offenders" >&2
  representation_ok=0
fi
if [[ "$representation_ok" -eq 1 ]]; then
  note "representation lint: OK (no use_ir; no pointer-tree builders)"
fi

# --- 5. one candidate-pricing path ---------------------------------------
# The oracle has one batch branch (group-key merges go through the
# kernels' group-slot remap); the per-valuation loop is only the scalar
# reference. A second pricer must not come back beside it.
offenders=$(grep -rnE \
    'IncrementalScorer|summarize/incremental\.h|SummarizerOptions::Incremental' \
    src tests bench examples || true)
if [[ -n "$offenders" ]]; then
  fail "a second candidate pricer is back (the batch kernels price every candidate):"
  printf '%s\n' "$offenders" >&2
else
  note "pricing-path lint: OK (no incremental scorer)"
fi

# --- 6. one distance oracle ----------------------------------------------
# The sampling estimator is the oracle over a drawn valuation set; a
# second oracle or a virtual oracle base must not come back.
offenders=$(grep -nwE 'SampledDistance|virtual' src/summarize/distance.h || true)
if [[ -n "$offenders" ]]; then
  fail "a second distance oracle or a virtual oracle member is back (sampling is a valuation class):"
  printf '%s\n' "$offenders" >&2
else
  note "distance-oracle lint: OK (one oracle, no virtual members)"
fi

if [[ "$failures" -gt 0 ]]; then
  note "$failures check(s) failed"
  exit 1
fi
note "all layering checks passed"
