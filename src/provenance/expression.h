#ifndef PROX_PROVENANCE_EXPRESSION_H_
#define PROX_PROVENANCE_EXPRESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "provenance/annotation.h"
#include "provenance/eval_result.h"
#include "provenance/homomorphism.h"
#include "provenance/valuation.h"

namespace prox {

namespace ir {
class IrAggregateExpression;
class IrDdpExpression;
}  // namespace ir

namespace kernels {
class BatchEvalFacade;
}

/// \brief Abstract provenance expression — the object summarization acts on.
///
/// The summarizer (Algorithm 1), the baselines and the PROX services are
/// written against this interface so the aggregate (movie / Wikipedia)
/// structure and the DDP structure plug in interchangeably. The flat
/// prox::ir classes are its implementations (docs/IR.md); producers append
/// rows into them directly.
/// Implementations keep themselves *simplified* (canonical under the
/// semiring axioms and tensor congruences) after Apply, since Size() feeds
/// the candidate score directly.
class ProvenanceExpression {
 public:
  virtual ~ProvenanceExpression() = default;

  /// Number of annotation occurrences, with repetitions (Section 3.2's
  /// provenance-size measure).
  virtual int64_t Size() const = 0;

  /// Appends every distinct annotation appearing in the expression
  /// (including inside guards and group keys) to `out`, sorted and unique.
  virtual void CollectAnnotations(std::vector<AnnotationId>* out) const = 0;

  /// Applies a homomorphism and simplifies. The receiver is unchanged.
  virtual std::unique_ptr<ProvenanceExpression> Apply(
      const Homomorphism& h) const = 0;

  /// Evaluates under a (materialized) truth valuation.
  virtual EvalResult Evaluate(const MaterializedValuation& v) const = 0;

  virtual std::unique_ptr<ProvenanceExpression> Clone() const = 0;

  /// Human-readable polynomial form as printed by the PROX expression view.
  virtual std::string ToString(const AnnotationRegistry& registry) const = 0;

  /// Structural access: non-null when the expression is an aggregate
  /// (ir/agg_expr.h) / DDP (ir/ddp_expr.h) structure. Consumers read rows
  /// through the returned class's views instead of casting.
  virtual const ir::IrAggregateExpression* AsAggregate() const {
    return nullptr;
  }
  virtual const ir::IrDdpExpression* AsDdp() const { return nullptr; }

  /// Batch evaluation (kernels/batch_eval.h): lowers the expression into a
  /// flat BatchProgram for the SIMD batch kernels, the distance oracle's
  /// one pricing path. Every implementation provides it.
  virtual const kernels::BatchEvalFacade* AsBatchEval() const = 0;
};

}  // namespace prox

#endif  // PROX_PROVENANCE_EXPRESSION_H_
