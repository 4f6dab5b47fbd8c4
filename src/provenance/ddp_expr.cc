#include "provenance/ddp_expr.h"

#include <algorithm>
#include <tuple>

namespace prox {

bool DdpTransition::operator==(const DdpTransition& other) const {
  return kind == other.kind && cost_var == other.cost_var &&
         db_factors == other.db_factors && nonzero == other.nonzero;
}

bool DdpTransition::operator<(const DdpTransition& other) const {
  return std::tie(kind, cost_var, db_factors, nonzero) <
         std::tie(other.kind, other.cost_var, other.db_factors, other.nonzero);
}

void DdpExpression::Simplify() {
  for (auto& exec : executions_) {
    std::sort(exec.transitions.begin(), exec.transitions.end());
  }
  std::sort(executions_.begin(), executions_.end());
  executions_.erase(std::unique(executions_.begin(), executions_.end()),
                    executions_.end());
}

DdpTransitionView DdpExpression::ddp_transition(size_t exec, size_t t) const {
  const DdpTransition& tr = executions_[exec].transitions[t];
  DdpTransitionView view;
  view.user = tr.kind == DdpTransition::Kind::kUser;
  view.cost_var = tr.cost_var;
  view.db = tr.db_factors.factors().data();
  view.db_len = tr.db_factors.factors().size();
  view.nonzero = tr.nonzero;
  return view;
}

std::vector<std::pair<AnnotationId, double>> DdpExpression::ddp_costs() const {
  return {costs_.begin(), costs_.end()};
}

}  // namespace prox
