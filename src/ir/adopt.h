#ifndef PROX_IR_ADOPT_H_
#define PROX_IR_ADOPT_H_

#include <memory>

#include "ir/term_pool.h"
#include "provenance/expression.h"
#include "provenance/facade.h"
#include "semiring/polynomial.h"

namespace prox {
namespace ir {

/// \brief Builds the flat prox::ir form of a provenance structure,
/// interning its monomials and guards into `pool`.
///
/// The builders of provenance/ (and every producer that assembles
/// provenance term by term) end with one Adopt: aggregate and DDP
/// structures are read through their facades, plain ℕ[Ann] provenance
/// through its Polynomial. The ProvenanceExpression overload copies an
/// existing IR expression into `pool`. Adopt always copies — it never
/// shares the source's pool — so work on the result (an Apply on the main
/// thread interns into `pool`) leaves the source's pool untouched. The
/// result is canonical and evaluates/prints byte-identically to the
/// source. Main-thread only (interning mutates the pool).
std::unique_ptr<ProvenanceExpression> Adopt(
    const AggregateFacade& agg, const std::shared_ptr<TermPool>& pool);
std::unique_ptr<ProvenanceExpression> Adopt(
    const DdpFacade& ddp, const std::shared_ptr<TermPool>& pool);
std::unique_ptr<ProvenanceExpression> Adopt(
    const Polynomial& poly, const std::shared_ptr<TermPool>& pool);
std::unique_ptr<ProvenanceExpression> Adopt(
    const ProvenanceExpression& e, const std::shared_ptr<TermPool>& pool);

}  // namespace ir
}  // namespace prox

#endif  // PROX_IR_ADOPT_H_
