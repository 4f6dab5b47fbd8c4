// AVX2 tier. This translation unit is compiled with -mavx2 -mno-fma
// (see CMakeLists.txt); nothing here may be called unless the shared
// detector reports SimdTier::kAvx2. On non-x86 targets it forwards to
// the scalar tier.

#include "kernels/kernels_impl.h"
#include "kernels/tier_entry.h"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cstring>

namespace prox {
namespace kernels {
namespace internal {

namespace {

/// Four valuation lanes per __m256d. -mno-fma keeps mul+add sequences
/// uncontracted, so every lane's arithmetic is the scalar sequence.
struct AvxOps {
  static constexpr size_t kLanes = 4;
  using VecD = __m256d;
  using MaskD = __m256d;

  static VecD Load(const double* p) { return _mm256_loadu_pd(p); }
  static void Store(double* p, VecD v) { _mm256_storeu_pd(p, v); }
  static VecD Broadcast(double v) { return _mm256_set1_pd(v); }
  static VecD Add(VecD a, VecD b) { return _mm256_add_pd(a, b); }
  static VecD Sub(VecD a, VecD b) { return _mm256_sub_pd(a, b); }
  static VecD Mul(VecD a, VecD b) { return _mm256_mul_pd(a, b); }
  static VecD Div(VecD a, VecD b) { return _mm256_div_pd(a, b); }
  static VecD Sqrt(VecD a) { return _mm256_sqrt_pd(a); }
  static VecD Abs(VecD a) {
    return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a);  // == fabs
  }
  static MaskD CmpLT(VecD a, VecD b) {
    return _mm256_cmp_pd(a, b, _CMP_LT_OQ);  // NaN -> false, like scalar <
  }
  static MaskD CmpEQ(VecD a, VecD b) {
    return _mm256_cmp_pd(a, b, _CMP_EQ_OQ);
  }
  static MaskD MaskFromBytes(const uint8_t* p) {
    // Sign-extend four 0xFF/0x00 bytes to four all-ones/all-zeros qwords.
    uint32_t four;
    std::memcpy(&four, p, 4);
    return _mm256_castsi256_pd(
        _mm256_cvtepi8_epi64(_mm_cvtsi32_si128(static_cast<int>(four))));
  }
  static MaskD MaskAnd(MaskD a, MaskD b) { return _mm256_and_pd(a, b); }
  static MaskD MaskOr(MaskD a, MaskD b) { return _mm256_or_pd(a, b); }
  static MaskD MaskNot(MaskD a) {
    return _mm256_xor_pd(a, _mm256_castsi256_pd(_mm256_set1_epi32(-1)));
  }
  static MaskD MaskTrue() {
    return _mm256_castsi256_pd(_mm256_set1_epi32(-1));
  }
  static VecD Select(MaskD m, VecD a, VecD b) {
    return _mm256_blendv_pd(b, a, m);  // per lane: m ? a : b
  }
};

}  // namespace

void EvalBatchAvx2(const BatchProgram& p, const ValuationBlock& b,
                   BlockEval* out) {
  EvalBatchImpl<AvxOps>(p, b, out);
}

void FoldAggRowsAvx2(AggFold fold, const AggBatchRow* rows,
                     const uint64_t* masks, size_t n, AggAccumulator* acc) {
  FoldAggRowsImpl<AvxOps>(fold, rows, masks, n, acc);
}

void ValFuncErrorsAvx2(ValFuncBatchKind kind, double ddp_max_error,
                       const BlockEval& base, const BlockEval& cand,
                       double* err) {
  ValFuncErrorsImpl<AvxOps>(kind, ddp_max_error, base, cand, err);
}

}  // namespace internal
}  // namespace kernels
}  // namespace prox

#else  // !x86-64

namespace prox {
namespace kernels {
namespace internal {

void EvalBatchAvx2(const BatchProgram& p, const ValuationBlock& b,
                   BlockEval* out) {
  EvalBatchScalar(p, b, out);
}

void FoldAggRowsAvx2(AggFold fold, const AggBatchRow* rows,
                     const uint64_t* masks, size_t n, AggAccumulator* acc) {
  FoldAggRowsScalar(fold, rows, masks, n, acc);
}

void ValFuncErrorsAvx2(ValFuncBatchKind kind, double ddp_max_error,
                       const BlockEval& base, const BlockEval& cand,
                       double* err) {
  ValFuncErrorsScalar(kind, ddp_max_error, base, cand, err);
}

}  // namespace internal
}  // namespace kernels
}  // namespace prox

#endif
