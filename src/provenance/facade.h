#ifndef PROX_PROVENANCE_FACADE_H_
#define PROX_PROVENANCE_FACADE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "provenance/agg_value.h"
#include "provenance/annotation.h"
#include "provenance/guard.h"

namespace prox {

/// \brief Structural read access to aggregate / DDP expressions without
/// committing to a storage layout.
///
/// The flat arena-backed prox::ir classes (docs/IR.md) implement these
/// facades for their consumers — the group reporter, the selection
/// service, the io writer, the store codec — which read through
/// `AsAggregate()` / `AsDdp()` instead of casting to a concrete class. The
/// builder classes (AggregateExpression, DdpExpression) implement them too:
/// that is what ir::Adopt reads.
///
/// Views are *non-owning and transient*: the spans point into the
/// expression's storage (a builder term's factor vector, or the IR factor
/// arena) and are invalidated by any mutation of the expression or, for IR
/// expressions, by interning new monomials into the shared TermPool.
/// Consume a view before the next mutation; do not store it.

/// One aggregate tensor term `monomial · [guard] ⊗ (value, count)`.
struct AggTermView {
  const AnnotationId* mono = nullptr;
  size_t mono_len = 0;
  AnnotationId group = kNoAnnotation;
  AggValue value;
  bool has_guard = false;
  const AnnotationId* guard_mono = nullptr;
  size_t guard_len = 0;
  double guard_scalar = 0.0;
  CompareOp guard_op = CompareOp::kGt;
  double guard_threshold = 0.0;
};

class AggregateFacade {
 public:
  virtual ~AggregateFacade() = default;

  virtual AggKind agg_kind() const = 0;
  virtual size_t agg_num_terms() const = 0;
  /// Term `i` in canonical (group, monomial, guard) order.
  virtual AggTermView agg_term(size_t i) const = 0;
};

/// One DDP transition: a user effort ⟨c,1⟩ or a DB guard ⟨0,[m]≠0⟩/⟨0,[m]=0⟩.
struct DdpTransitionView {
  bool user = true;
  AnnotationId cost_var = kNoAnnotation;  // user transitions
  const AnnotationId* db = nullptr;       // db transitions
  size_t db_len = 0;
  bool nonzero = true;
};

class DdpFacade {
 public:
  virtual ~DdpFacade() = default;

  virtual size_t ddp_num_executions() const = 0;
  virtual size_t ddp_num_transitions(size_t exec) const = 0;
  virtual DdpTransitionView ddp_transition(size_t exec, size_t t) const = 0;
  /// The cost table, sorted by cost variable.
  virtual std::vector<std::pair<AnnotationId, double>> ddp_costs() const = 0;
};

/// Rebuilds an owning Monomial from a view span (the span is already in the
/// canonical sorted order, so this is a plain copy).
inline Monomial MonomialFromSpan(const AnnotationId* data, size_t len) {
  return Monomial(std::vector<AnnotationId>(data, data + len));
}

inline Guard GuardFromView(const AggTermView& t) {
  return Guard(MonomialFromSpan(t.guard_mono, t.guard_len), t.guard_scalar,
               t.guard_op, t.guard_threshold);
}

}  // namespace prox

#endif  // PROX_PROVENANCE_FACADE_H_
