// SSE4.2 tier. This translation unit is compiled with -msse4.2 -mno-fma
// (see CMakeLists.txt); nothing here may be called unless the shared
// detector reports at least SimdTier::kSse42. On non-x86 targets it
// forwards to the scalar tier.

#include "kernels/kernels_impl.h"
#include "kernels/tier_entry.h"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cstring>

namespace prox {
namespace kernels {
namespace internal {

namespace {

/// Two valuation lanes per __m128d. Comparison masks are full __m128d
/// bit masks (all-ones / all-zeros), so blendv's sign-bit semantics are
/// exact. The legacy (non-VEX) cmplt/cmpeq forms signal on NaN where
/// AVX's _CMP_LT_OQ is quiet, but both return false — results match the
/// scalar `<` / `==` bit for bit, and FP exception flags are unused.
struct SseOps {
  static constexpr size_t kLanes = 2;
  using VecD = __m128d;
  using MaskD = __m128d;

  static VecD Load(const double* p) { return _mm_loadu_pd(p); }
  static void Store(double* p, VecD v) { _mm_storeu_pd(p, v); }
  static VecD Broadcast(double v) { return _mm_set1_pd(v); }
  static VecD Add(VecD a, VecD b) { return _mm_add_pd(a, b); }
  static VecD Sub(VecD a, VecD b) { return _mm_sub_pd(a, b); }
  static VecD Mul(VecD a, VecD b) { return _mm_mul_pd(a, b); }
  static VecD Div(VecD a, VecD b) { return _mm_div_pd(a, b); }
  static VecD Sqrt(VecD a) { return _mm_sqrt_pd(a); }
  static VecD Abs(VecD a) {
    return _mm_andnot_pd(_mm_set1_pd(-0.0), a);  // clear sign bit == fabs
  }
  static MaskD CmpLT(VecD a, VecD b) { return _mm_cmplt_pd(a, b); }
  static MaskD CmpEQ(VecD a, VecD b) { return _mm_cmpeq_pd(a, b); }
  static MaskD MaskFromBytes(const uint8_t* p) {
    // Sign-extend two 0xFF/0x00 bytes to two all-ones/all-zeros qwords.
    uint16_t two;
    std::memcpy(&two, p, 2);
    return _mm_castsi128_pd(_mm_cvtepi8_epi64(_mm_cvtsi32_si128(two)));
  }
  static MaskD MaskAnd(MaskD a, MaskD b) { return _mm_and_pd(a, b); }
  static MaskD MaskOr(MaskD a, MaskD b) { return _mm_or_pd(a, b); }
  static MaskD MaskNot(MaskD a) {
    return _mm_xor_pd(a, _mm_castsi128_pd(_mm_set1_epi32(-1)));
  }
  static MaskD MaskTrue() { return _mm_castsi128_pd(_mm_set1_epi32(-1)); }
  static VecD Select(MaskD m, VecD a, VecD b) {
    return _mm_blendv_pd(b, a, m);  // per lane: m ? a : b
  }
};

}  // namespace

void EvalBatchSse42(const BatchProgram& p, const ValuationBlock& b,
                    BlockEval* out) {
  EvalBatchImpl<SseOps>(p, b, out);
}

void FoldAggRowsSse42(AggFold fold, const AggBatchRow* rows,
                      const uint64_t* masks, size_t n, AggAccumulator* acc) {
  FoldAggRowsImpl<SseOps>(fold, rows, masks, n, acc);
}

void ValFuncErrorsSse42(ValFuncBatchKind kind, double ddp_max_error,
                        const BlockEval& base, const BlockEval& cand,
                        double* err) {
  ValFuncErrorsImpl<SseOps>(kind, ddp_max_error, base, cand, err);
}

}  // namespace internal
}  // namespace kernels
}  // namespace prox

#else  // !x86-64

namespace prox {
namespace kernels {
namespace internal {

void EvalBatchSse42(const BatchProgram& p, const ValuationBlock& b,
                    BlockEval* out) {
  EvalBatchScalar(p, b, out);
}

void FoldAggRowsSse42(AggFold fold, const AggBatchRow* rows,
                      const uint64_t* masks, size_t n, AggAccumulator* acc) {
  FoldAggRowsScalar(fold, rows, masks, n, acc);
}

void ValFuncErrorsSse42(ValFuncBatchKind kind, double ddp_max_error,
                        const BlockEval& base, const BlockEval& cand,
                        double* err) {
  ValFuncErrorsScalar(kind, ddp_max_error, base, cand, err);
}

}  // namespace internal
}  // namespace kernels
}  // namespace prox

#endif
