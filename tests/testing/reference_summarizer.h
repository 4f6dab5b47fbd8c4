#ifndef PROX_TESTS_TESTING_REFERENCE_SUMMARIZER_H_
#define PROX_TESTS_TESTING_REFERENCE_SUMMARIZER_H_

// A naive Algorithm 1: the spec every fast path of the summarizer is
// checked against. It builds every candidate with Apply, prices it one
// valuation at a time with Evaluate, the projection of Example 5.2.1 and
// VAL-FUNC Compute (Definition 3.2.2), scores it with CandidateScore and
// picks the winner with Summarizer::Run's tie-breaks. It has no step
// pricer, no pricing cache, no bounds and no thread fan-out, so a
// Summarizer::Run on an identical dataset must commit the same steps, bit
// for bit, at every thread count and SIMD tier.

#include <cstdint>
#include <vector>

#include "provenance/eval_result.h"
#include "provenance/expression.h"
#include "provenance/homomorphism.h"
#include "provenance/valuation.h"
#include "semantics/constraints.h"
#include "semantics/context.h"
#include "summarize/candidates.h"
#include "summarize/mapping_state.h"
#include "summarize/summarizer.h"
#include "summarize/val_func.h"

namespace prox {
namespace testing_reference {

/// Projects `base`, an evaluation of p₀, into the coordinate space of
/// `cand` = h(p₀) through the cumulative homomorphism `h` (Example 5.2.1):
/// coordinates whose group keys h merges fold under `cand`'s aggregation
/// (AVG as count-weighted sums). When h fixes every group key the
/// projection is the identity and `base` comes back as it is (refolding an
/// AVG coordinate as value·count/count could move its last bit). Scalar
/// and cost/bool results have no group keys.
EvalResult ProjectEvalResult(const ProvenanceExpression& cand,
                             const EvalResult& base, const Homomorphism& h);

/// What Definition 3.2.2's distance is taken over: p₀, the registry its
/// annotations live in, VAL-FUNC and the valuation set.
struct DistanceInputs {
  const ProvenanceExpression* p0 = nullptr;
  const AnnotationRegistry* registry = nullptr;
  const ValFunc* val_func = nullptr;
  const std::vector<Valuation>* valuations = nullptr;
};

/// dist^{h,φ}(p₀, cand) for `cand` = h(p₀) under `state` (Definition
/// 3.2.2), one valuation at a time: the weighted average of
/// Compute(ProjectEvalResult(v(p₀)), v^{h,φ}(cand)), normalized by
/// MaxError of the all-true v(p₀). The weighted terms are summed in
/// chunks of EnumeratedDistance::kReductionGrain valuations, the chunk
/// sums in ascending order: the summation tree every pricing path fixes.
double ReferenceDistance(const DistanceInputs& in,
                         const ProvenanceExpression& cand,
                         const MappingState& state);

/// One candidate of one step as the reference priced it.
struct ReferencePrice {
  std::vector<AnnotationId> roots;
  Candidate candidate;  ///< its constraint verdict (the roots are above)
  double distance = 0.0;
  int64_t size = 0;
  double score = 0.0;  ///< CandidateScore, or the ordinal-rank score
};

struct ReferenceRun {
  /// `steps[i].candidate_eval_nanos`, `step_nanos` and `total_nanos` stay
  /// 0: the reference measures nothing.
  SummaryOutcome outcome;
  /// Every candidate of every step, in candidate order.
  std::vector<std::vector<ReferencePrice>> priced;
};

/// Algorithm 1 over `p0` with Summarizer::Run's options, stop conditions,
/// equivalence pass, warm start and TARGET-DIST rollback. It registers
/// annotations in `registry` exactly as Summarizer::Run does (one
/// "~scratch" per domain per step, in candidate order, then the winner's
/// summary), so a run on an identical dataset gets the same ids and
/// names. `options` must be ones Run accepts; `options.threads` is
/// ignored.
ReferenceRun RunReference(const ProvenanceExpression& p0,
                          AnnotationRegistry* registry,
                          const SemanticContext& ctx,
                          const ConstraintSet& constraints,
                          const ValFunc& val_func,
                          const std::vector<Valuation>& valuations,
                          SummarizerOptions options);

}  // namespace testing_reference
}  // namespace prox

#endif  // PROX_TESTS_TESTING_REFERENCE_SUMMARIZER_H_
