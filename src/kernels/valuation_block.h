#ifndef PROX_KERNELS_VALUATION_BLOCK_H_
#define PROX_KERNELS_VALUATION_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "provenance/valuation.h"

namespace prox {
namespace kernels {

/// Lanes per batch pass: the oracle's reduction grain (8 valuations).
/// Every ValuationBlock and BlockEval row is this wide.
inline constexpr size_t kMaxLanes = 8;

/// \brief A structure-of-arrays block of up to 8 materialized valuations —
/// the batch counterpart of MaterializedValuation (docs/KERNELS.md).
///
/// Truth values are interleaved lane-minor: `truth[a * kMaxLanes + lane]`
/// is valuation `lane`'s truth of annotation `a`, stored as 0xFF (true) or
/// 0x00 (false) so a row doubles as a byte mask. One pass over an
/// expression's term rows then evaluates every lane at once: a monomial's
/// liveness across all lanes is the bitwise AND of its factors' rows —
/// one uint64 op per factor for 8 lanes instead of 8 pointer-chasing
/// walks.
///
/// Lanes in [width, kMaxLanes) are initialized all-true and their results
/// are garbage the caller must ignore. Annotations at or beyond
/// `num_annotations` follow MaterializedValuation's default-true
/// convention (kernels skip those factors rather than reading out of
/// bounds).
class ValuationBlock {
 public:
  /// Re-shapes the block for `width` (<= kMaxLanes) lanes over
  /// `num_annotations` annotations and resets every truth byte to true.
  /// Capacity is kept across calls, so a thread-local block allocates once
  /// per thread.
  void Reset(size_t num_annotations, size_t width) {
    num_annotations_ = num_annotations;
    width_ = width;
    truth_.assign(num_annotations_ * kMaxLanes, 0xFF);
  }

  size_t num_annotations() const { return num_annotations_; }
  size_t width() const { return width_; }

  /// Copies a materialized valuation into `lane`. Annotations beyond
  /// `mat.size()` keep the default-true bytes Reset() wrote.
  void FillLane(size_t lane, const MaterializedValuation& mat) {
    const size_t limit =
        num_annotations_ < mat.size() ? num_annotations_ : mat.size();
    uint8_t* t = truth_.data() + lane;
    for (size_t a = 0; a < limit; ++a) {
      t[a * kMaxLanes] = mat.truth(a) ? 0xFF : 0x00;
    }
  }

  /// Materializes a sparse valuation into `lane` (the lane starts all-true
  /// after Reset(), so only the false set is written).
  void FillLaneSparse(size_t lane, const Valuation& v) {
    for (AnnotationId a : v.false_set()) {
      if (a < num_annotations_) truth_[a * kMaxLanes + lane] = 0x00;
    }
  }

  void Set(size_t lane, AnnotationId a, bool value) {
    truth_[a * kMaxLanes + lane] = value ? 0xFF : 0x00;
  }

  /// The kMaxLanes truth bytes of annotation `a` (one per lane).
  const uint8_t* Row(AnnotationId a) const {
    return truth_.data() + static_cast<size_t>(a) * kMaxLanes;
  }
  uint8_t* MutableRow(AnnotationId a) {
    return truth_.data() + static_cast<size_t>(a) * kMaxLanes;
  }

 private:
  std::vector<uint8_t> truth_;
  size_t num_annotations_ = 0;
  size_t width_ = 0;
};

}  // namespace kernels
}  // namespace prox

#endif  // PROX_KERNELS_VALUATION_BLOCK_H_
