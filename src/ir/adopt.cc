#include "ir/adopt.h"

#include "ir/agg_expr.h"
#include "ir/ddp_expr.h"
#include "ir/poly_expr.h"

namespace prox {
namespace ir {

std::unique_ptr<ProvenanceExpression> Adopt(
    const AggregateFacade& agg, const std::shared_ptr<TermPool>& pool) {
  auto out = std::make_unique<IrAggregateExpression>(agg.agg_kind(), pool);
  const size_t n = agg.agg_num_terms();
  out->ReserveAdditionalTerms(n);
  for (size_t i = 0; i < n; ++i) {
    const AggTermView t = agg.agg_term(i);
    const MonomialId mono = pool->InternMonomial(t.mono, t.mono_len);
    GuardId guard = kNoGuard;
    if (t.has_guard) {
      const MonomialId gm = pool->InternMonomial(t.guard_mono, t.guard_len);
      guard = pool->InternGuard(gm, t.guard_scalar, t.guard_op,
                                t.guard_threshold);
    }
    out->AddTermIds(mono, guard, t.group, t.value);
  }
  // Simplified builders and IR sources arrive in canonical order, so the
  // linear order check usually stands in for the sort.
  out->CanonicalizeSorted();
  return out;
}

std::unique_ptr<ProvenanceExpression> Adopt(
    const DdpFacade& ddp, const std::shared_ptr<TermPool>& pool) {
  auto out = std::make_unique<IrDdpExpression>(pool);
  const size_t num_exec = ddp.ddp_num_executions();
  for (size_t ex = 0; ex < num_exec; ++ex) {
    out->BeginExecution();
    const size_t num_tr = ddp.ddp_num_transitions(ex);
    for (size_t t = 0; t < num_tr; ++t) {
      const DdpTransitionView tr = ddp.ddp_transition(ex, t);
      if (tr.user) {
        out->AddUserTransition(tr.cost_var);
      } else {
        out->AddDbTransition(pool->InternMonomial(tr.db, tr.db_len),
                             tr.nonzero);
      }
    }
  }
  for (const auto& [var, cost] : ddp.ddp_costs()) out->SetCost(var, cost);
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

std::unique_ptr<ProvenanceExpression> Adopt(
    const ProvenanceExpression& e, const std::shared_ptr<TermPool>& pool) {
  if (const AggregateFacade* agg = e.AsAggregate()) return Adopt(*agg, pool);
  if (const DdpFacade* ddp = e.AsDdp()) return Adopt(*ddp, pool);
  const auto& poly = dynamic_cast<const IrPolynomialExpression&>(e);
  auto out = std::make_unique<IrPolynomialExpression>(pool);
  for (size_t i = 0; i < poly.num_terms(); ++i) {
    out->AddTermIds(pool->InternMonomial(poly.term_data(i), poly.term_len(i)),
                    poly.coeff(i));
  }
  out->Canonicalize();
  return out;
}

}  // namespace ir
}  // namespace prox
