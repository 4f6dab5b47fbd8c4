#ifndef PROX_SUMMARIZE_INCREMENTAL_H_
#define PROX_SUMMARIZE_INCREMENTAL_H_

#include <map>
#include <memory>
#include <vector>

#include "provenance/aggregate_expr.h"
#include "provenance/expression.h"
#include "provenance/facade.h"
#include "summarize/distance.h"
#include "summarize/mapping_state.h"

namespace prox {

/// \brief Incremental candidate scoring for aggregate expressions.
///
/// Algorithm 1 evaluates every candidate against every valuation; the
/// naive cost per candidate is O(|V_Ann| · |p'|). A single-step merge of
/// annotations {a, b}, however, only changes the coordinates whose tensors
/// mention a or b — every other coordinate keeps its cached value, and the
/// Euclidean VAL-FUNC's sum of squares updates by the affected terms only:
///
///   Σ_c (base_c − cand_c)²
///     = Σ_c (base_c − cur_c)²  +  Σ_{c affected} [(base_c − cand_c)² −
///                                                 (base_c − cur_c)²]
///
/// The scorer caches per-valuation coordinate values of the *current*
/// expression at construction (one full evaluation) and then prices each
/// candidate at O(|V_Ann| · affected terms). It also returns the size
/// delta, replicating the tensor-congruence merging of Apply+Simplify
/// locally.
///
/// Restrictions (checked by CanScore / the factory): aggregate expressions
/// with the Euclidean or AbsoluteDifference VAL-FUNC, candidates that do
/// not merge group-key annotations, and a cumulative homomorphism that is
/// the identity on group keys (so the base projection is trivial). The
/// Summarizer falls back to the general oracle otherwise.
class IncrementalScorer {
 public:
  enum class Metric { kEuclidean, kL1 };

  /// Builds the cache. Returns nullptr when the configuration is not
  /// scoreable incrementally (see class comment) — in particular when
  /// `current` is not an aggregate structure (AsAggregate() == nullptr).
  ///
  /// \param current the current expression p' (must outlive the scorer)
  /// \param oracle the exact oracle whose valuations/base evaluations and
  ///   normalization this scorer reproduces (must outlive the scorer)
  /// \param state the cumulative mapping state (must outlive the scorer)
  static std::unique_ptr<IncrementalScorer> Create(
      const ProvenanceExpression* current, const EnumeratedDistance* oracle,
      const MappingState* state, Metric metric);

  /// True when a merge of exactly these current annotations is scoreable
  /// (none of them is a group key of the expression).
  bool CanScore(const std::vector<AnnotationId>& roots) const;

  /// Result of pricing one candidate merge.
  struct Score {
    double distance = 0.0;  ///< normalized, identical to the oracle's
    int64_t size = 0;       ///< size of the merged expression
  };

  /// Prices the merge of `roots` into one fresh summary annotation,
  /// without materializing the merged expression. Requires
  /// CanScore(roots).
  Score ScoreMerge(const std::vector<AnnotationId>& roots) const;

 private:
  IncrementalScorer(const ProvenanceExpression* current,
                    const EnumeratedDistance* oracle,
                    const MappingState* state, Metric metric);

  bool Initialize();

  const ProvenanceExpression* current_;
  const EnumeratedDistance* oracle_;
  const MappingState* state_;
  Metric metric_;

  // Snapshot of the aggregate structure read through the facade at
  // construction (facade views are transient; owning copies keep the
  // per-candidate scoring loops independent of the representation).
  AggKind agg_ = AggKind::kSum;
  std::vector<TensorTerm> terms_;

  // Structure indexes over `current_`.
  std::vector<AnnotationId> groups_;                   // sorted coordinate keys
  std::map<AnnotationId, size_t> group_index_;
  std::vector<std::vector<size_t>> terms_of_group_;    // group -> term idxs
  std::map<AnnotationId, std::vector<size_t>> terms_of_ann_;

  // Per-valuation caches.
  std::vector<MaterializedValuation> transformed_;    // v^{h,φ} bitmaps
  std::vector<std::vector<double>> cur_values_;       // [valuation][group]
  std::vector<std::vector<double>> base_values_;      // [valuation][group]
  std::vector<double> cached_error_;  // Σ_c metric(base_c, cur_c) per val
  double total_weight_ = 0.0;
};

}  // namespace prox

#endif  // PROX_SUMMARIZE_INCREMENTAL_H_
