#ifndef PROX_KERNELS_TIER_ENTRY_H_
#define PROX_KERNELS_TIER_ENTRY_H_

#include "kernels/batch_eval.h"

namespace prox {
namespace kernels {
namespace internal {

/// Per-tier entry points behind EvaluateBlock / FoldAggRows /
/// ValFuncBlockErrors' runtime dispatch. One translation unit per tier
/// instantiates the shared templates of kernels_impl.h against its
/// vector-ops policy (scalar doubles, __m128d, __m256d); the SSE4.2/AVX2
/// TUs compile with
/// per-file -msse4.2 / -mavx2 (and explicit -mno-fma: the rest of the
/// tree builds without -march flags, so scalar code never contracts
/// mul+add — the vector tiers must not either). On non-x86 targets the
/// SIMD TUs forward to the scalar entry points.

void EvalBatchScalar(const BatchProgram& p, const ValuationBlock& b,
                     BlockEval* out);
void EvalBatchSse42(const BatchProgram& p, const ValuationBlock& b,
                    BlockEval* out);
void EvalBatchAvx2(const BatchProgram& p, const ValuationBlock& b,
                   BlockEval* out);

void FoldAggRowsScalar(AggFold fold, const AggBatchRow* rows,
                       const uint64_t* masks, size_t n, AggAccumulator* acc);
void FoldAggRowsSse42(AggFold fold, const AggBatchRow* rows,
                      const uint64_t* masks, size_t n, AggAccumulator* acc);
void FoldAggRowsAvx2(AggFold fold, const AggBatchRow* rows,
                     const uint64_t* masks, size_t n, AggAccumulator* acc);

void ValFuncErrorsScalar(ValFuncBatchKind kind, double ddp_max_error,
                         const BlockEval& base, const BlockEval& cand,
                         double* err);
void ValFuncErrorsSse42(ValFuncBatchKind kind, double ddp_max_error,
                        const BlockEval& base, const BlockEval& cand,
                        double* err);
void ValFuncErrorsAvx2(ValFuncBatchKind kind, double ddp_max_error,
                       const BlockEval& base, const BlockEval& cand,
                       double* err);

}  // namespace internal
}  // namespace kernels
}  // namespace prox

#endif  // PROX_KERNELS_TIER_ENTRY_H_
