#include <cmath>

#include "kernels/kernels_impl.h"
#include "kernels/tier_entry.h"

namespace prox {
namespace kernels {
namespace internal {

namespace {

/// The portable tier: one valuation lane per "vector". This is the
/// reference the SIMD tiers must match bit for bit — it performs the
/// scalar evaluators' operations verbatim.
struct ScalarOps {
  static constexpr size_t kLanes = 1;
  using VecD = double;
  using MaskD = bool;

  static VecD Load(const double* p) { return *p; }
  static void Store(double* p, VecD v) { *p = v; }
  static VecD Broadcast(double v) { return v; }
  static VecD Add(VecD a, VecD b) { return a + b; }
  static VecD Sub(VecD a, VecD b) { return a - b; }
  static VecD Mul(VecD a, VecD b) { return a * b; }
  static VecD Div(VecD a, VecD b) { return a / b; }
  static VecD Sqrt(VecD a) { return std::sqrt(a); }
  static VecD Abs(VecD a) { return std::fabs(a); }
  static MaskD CmpLT(VecD a, VecD b) { return a < b; }
  static MaskD CmpEQ(VecD a, VecD b) { return a == b; }
  static MaskD MaskFromBytes(const uint8_t* p) { return *p != 0; }
  static MaskD MaskAnd(MaskD a, MaskD b) { return a && b; }
  static MaskD MaskOr(MaskD a, MaskD b) { return a || b; }
  static MaskD MaskNot(MaskD a) { return !a; }
  static MaskD MaskTrue() { return true; }
  static VecD Select(MaskD m, VecD a, VecD b) { return m ? a : b; }
};

}  // namespace

void EvalBatchScalar(const BatchProgram& p, const ValuationBlock& b,
                     BlockEval* out) {
  EvalBatchImpl<ScalarOps>(p, b, out);
}

void FoldAggRowsScalar(AggFold fold, const AggBatchRow* rows,
                       const uint64_t* masks, size_t n, AggAccumulator* acc) {
  FoldAggRowsImpl<ScalarOps>(fold, rows, masks, n, acc);
}

void ValFuncErrorsScalar(ValFuncBatchKind kind, double ddp_max_error,
                         const BlockEval& base, const BlockEval& cand,
                         double* err) {
  ValFuncErrorsImpl<ScalarOps>(kind, ddp_max_error, base, cand, err);
}

}  // namespace internal
}  // namespace kernels
}  // namespace prox
