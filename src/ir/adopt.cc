#include "ir/adopt.h"

#include "ir/agg_expr.h"
#include "ir/ddp_expr.h"
#include "ir/poly_expr.h"

namespace prox {
namespace ir {

std::unique_ptr<ProvenanceExpression> Adopt(
    const ProvenanceExpression& e, const std::shared_ptr<TermPool>& pool) {
  if (const IrAggregateExpression* agg = e.AsAggregate()) {
    auto out = std::make_unique<IrAggregateExpression>(agg->agg(), pool);
    const size_t n = agg->num_terms();
    out->ReserveAdditionalTerms(n);
    for (size_t i = 0; i < n; ++i) {
      const IrAggregateExpression::InternedRow r =
          agg->InternRow(i, pool.get());
      out->AddTermIds(r.mono, r.guard, r.group, r.value);
    }
    // The source is canonical, so the linear order check stands in for
    // the sort.
    out->CanonicalizeSorted();
    return out;
  }
  if (const IrDdpExpression* ddp = e.AsDdp()) {
    auto out = std::make_unique<IrDdpExpression>(pool);
    for (size_t ex = 0; ex < ddp->num_executions(); ++ex) {
      out->BeginExecution();
      for (size_t t = 0; t < ddp->num_transitions(ex); ++t) {
        const DdpTransitionView tr = ddp->transition(ex, t);
        if (tr.user) {
          out->AddUserTransition(tr.cost_var);
        } else {
          out->AddDbTransition(pool->InternMonomial(tr.db, tr.db_len),
                               tr.nonzero);
        }
      }
    }
    for (const auto& [var, cost] : ddp->costs()) out->SetCost(var, cost);
    out->Canonicalize();
    return out;
  }
  const auto& poly = dynamic_cast<const IrPolynomialExpression&>(e);
  auto out = std::make_unique<IrPolynomialExpression>(pool);
  for (size_t i = 0; i < poly.num_terms(); ++i) {
    out->AddTermIds(pool->InternMonomial(poly.term_data(i), poly.term_len(i)),
                    poly.coeff(i));
  }
  out->Canonicalize();
  return out;
}

std::unique_ptr<ProvenanceExpression> Adopt(
    const Polynomial& poly, const std::shared_ptr<TermPool>& pool) {
  auto out = std::make_unique<IrPolynomialExpression>(pool);
  for (const auto& [mono, coeff] : poly.terms()) {
    out->AddTermIds(pool->InternMonomial(mono.data(), mono.size()), coeff);
  }
  out->Canonicalize();
  return out;
}

}  // namespace ir
}  // namespace prox
