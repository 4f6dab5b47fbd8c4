#ifndef PROX_BASELINES_RANDOM_SUMMARIZER_H_
#define PROX_BASELINES_RANDOM_SUMMARIZER_H_

#include <limits>

#include "common/result.h"
#include "common/rng.h"
#include "provenance/expression.h"
#include "semantics/constraints.h"
#include "semantics/context.h"
#include "summarize/candidates.h"
#include "summarize/distance.h"
#include "summarize/summarizer.h"

namespace prox {

/// Configuration of the Random baseline (§6.1's algorithm (3)).
struct RandomSummarizerOptions {
  double target_dist = 1.0;
  int64_t target_size = 1;
  int max_steps = std::numeric_limits<int>::max();
  int merge_arity = 2;
  uint64_t seed = 0xBADC0FFEE;
  PhiConfig phi;
};

/// \brief The Random competitor: "every pair of annotations was chosen
/// randomly from the list of pairs that satisfy the mapping constraints"
/// (§6.1), with the same TARGET-SIZE / TARGET-DIST stop conditions as the
/// other algorithms.
class RandomSummarizer {
 public:
  RandomSummarizer(const ProvenanceExpression* p0,
                   AnnotationRegistry* registry, const SemanticContext* ctx,
                   const ConstraintSet* constraints,
                   EnumeratedDistance* oracle,
                   RandomSummarizerOptions options);

  Result<SummaryOutcome> Run();

 private:
  const ProvenanceExpression* p0_;
  AnnotationRegistry* registry_;
  const SemanticContext* ctx_;
  const ConstraintSet* constraints_;
  EnumeratedDistance* oracle_;
  RandomSummarizerOptions options_;
};

}  // namespace prox

#endif  // PROX_BASELINES_RANDOM_SUMMARIZER_H_
