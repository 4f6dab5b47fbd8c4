#include "provenance/aggregate_expr.h"

#include <algorithm>

namespace prox {

namespace {

/// Canonical ordering key: group, then monomial, then guard.
bool TermLess(const TensorTerm& a, const TensorTerm& b) {
  if (a.group != b.group) return a.group < b.group;
  if (a.monomial != b.monomial) return a.monomial < b.monomial;
  const bool ag = a.guard.has_value();
  const bool bg = b.guard.has_value();
  if (ag != bg) return bg;  // guard-less terms first
  if (!ag) return false;
  return *a.guard < *b.guard;
}

bool TermKeyEqual(const TensorTerm& a, const TensorTerm& b) {
  return a.group == b.group && a.monomial == b.monomial && a.guard == b.guard;
}

}  // namespace

void AggregateExpression::Simplify() {
  std::sort(terms_.begin(), terms_.end(), TermLess);
  std::vector<TensorTerm> merged;
  merged.reserve(terms_.size());
  for (auto& term : terms_) {
    if (!merged.empty() && TermKeyEqual(merged.back(), term)) {
      merged.back().value = MergeAggValues(agg_, merged.back().value,
                                           term.value);
    } else {
      merged.push_back(std::move(term));
    }
  }
  terms_ = std::move(merged);
}

AggTermView AggregateExpression::agg_term(size_t i) const {
  const TensorTerm& t = terms_[i];
  AggTermView view;
  view.mono = t.monomial.factors().data();
  view.mono_len = t.monomial.factors().size();
  view.group = t.group;
  view.value = t.value;
  if (t.guard) {
    view.has_guard = true;
    view.guard_mono = t.guard->factors().factors().data();
    view.guard_len = t.guard->factors().factors().size();
    view.guard_scalar = t.guard->scalar();
    view.guard_op = t.guard->op();
    view.guard_threshold = t.guard->threshold();
  }
  return view;
}

}  // namespace prox
