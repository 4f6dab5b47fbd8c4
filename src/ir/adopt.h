#ifndef PROX_IR_ADOPT_H_
#define PROX_IR_ADOPT_H_

#include <memory>

#include "ir/term_pool.h"
#include "provenance/expression.h"
#include "semiring/polynomial.h"

namespace prox {
namespace ir {

/// \brief Copies a prox::ir expression into `pool`, re-interning its
/// monomials and guards there.
///
/// The summarizer, the baselines and the report use this to give each run
/// its own pool. Adopt always copies — it never shares the source's pool
/// — so work on the result (an Apply on the main thread interns into
/// `pool`) leaves the source's pool untouched. The result is canonical and
/// evaluates/prints byte-identically to the source. Main-thread only
/// (interning mutates the pool).
std::unique_ptr<ProvenanceExpression> Adopt(
    const ProvenanceExpression& e, const std::shared_ptr<TermPool>& pool);

/// The ℕ[Ann] entry point: builds the flat IrPolynomialExpression of a
/// semiring Polynomial (plain positive-query lineage) on `pool`.
std::unique_ptr<ProvenanceExpression> Adopt(
    const Polynomial& poly, const std::shared_ptr<TermPool>& pool);

}  // namespace ir
}  // namespace prox

#endif  // PROX_IR_ADOPT_H_
