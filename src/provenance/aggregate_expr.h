#ifndef PROX_PROVENANCE_AGGREGATE_EXPR_H_
#define PROX_PROVENANCE_AGGREGATE_EXPR_H_

#include <optional>
#include <utility>
#include <vector>

#include "provenance/agg_value.h"
#include "provenance/facade.h"
#include "provenance/guard.h"
#include "provenance/monomial.h"

namespace prox {

/// \brief One guarded tensor of an aggregate provenance expression:
/// `monomial · [guard] ⊗ (value, count)` contributing to coordinate `group`.
///
/// For the Table 5.1 movie structure a term is
/// `(UserID·MovieTitle·MovieYear) ⊗ (Rating, 1)` with `group` = the
/// MovieTitle annotation (the coordinate of the aggregation vector the
/// expression evaluates to).
struct TensorTerm {
  Monomial monomial;
  std::optional<Guard> guard;
  AnnotationId group = kNoAnnotation;
  AggValue value;
};

/// \brief Builder for the ⊕-sum of guarded tensors over a values monoid —
/// the aggregate provenance structure of Section 2.2 ([7, 6]) shared by the
/// MovieLens and Wikipedia datasets.
///
/// Producers assemble terms here and hand the result to ir::Adopt, which
/// builds the flat IrAggregateExpression that summarization evaluates
/// (docs/IR.md). Simplify() brings the terms into canonical form: sorted by
/// (group, monomial, guard) with equal-keyed tensors merged under the
/// congruence `k⊗v₁ ⊕ k⊗v₂ ≡ k⊗(v₁ agg v₂)` (Example 3.1.1's step from
/// `U₁⊗(3,1) ⊕ U₂⊗(5,1)` to `Female⊗(5,2)`).
class AggregateExpression : public AggregateFacade {
 public:
  explicit AggregateExpression(AggKind agg) : agg_(agg) {}

  AggKind agg() const { return agg_; }
  const std::vector<TensorTerm>& terms() const { return terms_; }
  size_t num_terms() const { return terms_.size(); }

  /// Appends a term; call Simplify() after the last AddTerm (builders may
  /// batch additions).
  void AddTerm(TensorTerm term) { terms_.push_back(std::move(term)); }

  /// Re-canonicalizes: sorts terms and merges equal-keyed tensors.
  void Simplify();

  // AggregateFacade interface (what ir::Adopt reads) ------------------------
  AggKind agg_kind() const override { return agg_; }
  size_t agg_num_terms() const override { return terms_.size(); }
  AggTermView agg_term(size_t i) const override;

 private:
  AggKind agg_;
  std::vector<TensorTerm> terms_;
};

}  // namespace prox

#endif  // PROX_PROVENANCE_AGGREGATE_EXPR_H_
