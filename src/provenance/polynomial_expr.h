#ifndef PROX_PROVENANCE_POLYNOMIAL_EXPR_H_
#define PROX_PROVENANCE_POLYNOMIAL_EXPR_H_

#include <utility>

#include "semiring/polynomial.h"

namespace prox {

/// \brief Plain ℕ[Ann] provenance as a summarizable expression — the base
/// semiring model of [21] for positive relational queries, without
/// aggregates or tensors.
///
/// A builder: ir::Adopt(expr.polynomial(), pool) produces the flat
/// IrPolynomialExpression the summarizer works on. Evaluation under a
/// truth valuation yields the natural number the polynomial takes when
/// each annotation maps to 0/1 (its derivation count; truth is
/// `value > 0`). This is the carrier of the #P-hardness reduction of
/// Proposition 4.1.1, and lets the summarizer run on Boolean/UCQ lineage
/// the way [26]'s approximate-lineage setting does.
class PolynomialExpression {
 public:
  explicit PolynomialExpression(Polynomial poly) : poly_(std::move(poly)) {}

  const Polynomial& polynomial() const { return poly_; }

 private:
  Polynomial poly_;
};

}  // namespace prox

#endif  // PROX_PROVENANCE_POLYNOMIAL_EXPR_H_
