#ifndef PROX_PROVENANCE_DDP_EXPR_H_
#define PROX_PROVENANCE_DDP_EXPR_H_

#include <map>
#include <utility>
#include <vector>

#include "provenance/facade.h"
#include "provenance/monomial.h"

namespace prox {

/// \brief One transition of a data-dependent process execution
/// (Example 5.2.2, after [17]).
///
/// Either a user-dependent transition `⟨c_k, 1⟩` carrying the cost variable
/// `c_k` (the user's effort), or a database-dependent transition
/// `⟨0, [d_i·d_j] ≠ 0⟩` / `⟨0, [d_i·d_j] = 0⟩` guarded by a product of DB
/// tuple variables.
struct DdpTransition {
  enum class Kind { kUser, kDb };

  Kind kind = Kind::kUser;
  AnnotationId cost_var = kNoAnnotation;  // kUser only
  Monomial db_factors;                    // kDb only
  bool nonzero = true;                    // kDb: true = "≠ 0", false = "= 0"

  static DdpTransition User(AnnotationId cost_var) {
    DdpTransition t;
    t.kind = Kind::kUser;
    t.cost_var = cost_var;
    return t;
  }
  static DdpTransition Db(Monomial factors, bool nonzero) {
    DdpTransition t;
    t.kind = Kind::kDb;
    t.db_factors = std::move(factors);
    t.nonzero = nonzero;
    return t;
  }

  bool operator==(const DdpTransition& other) const;
  bool operator<(const DdpTransition& other) const;
};

/// An execution: a ·-product of transitions.
struct DdpExecution {
  std::vector<DdpTransition> transitions;

  bool operator==(const DdpExecution& other) const {
    return transitions == other.transitions;
  }
  bool operator<(const DdpExecution& other) const {
    return transitions < other.transitions;
  }
};

/// \brief Builder for DDP provenance: a +-sum of executions over the
/// tropical × boolean semiring pair of [17].
///
/// Producers assemble executions and costs here and hand the result to
/// ir::Adopt, which builds the flat IrDdpExpression that summarization
/// evaluates (docs/IR.md). Evaluation under a valuation (which assigns
/// booleans to DB variables and keep/cancel bits to cost variables)
/// yields `⟨C, true⟩` where C is the minimum total user effort over
/// executions whose DB guards hold, or `⟨0, false⟩` when no execution is
/// feasible. Simplify() dedupes executions that became identical —
/// sound because the tropical/existential interpretation is additively
/// idempotent.
class DdpExpression : public DdpFacade {
 public:
  DdpExpression() = default;

  void AddExecution(DdpExecution exec) {
    executions_.push_back(std::move(exec));
  }

  /// Associates a cost with a cost variable. When a homomorphism merges
  /// cost variables, the summary variable's cost is the max of its members'
  /// costs (consistent with the MAX φ combiner of Table 5.1).
  void SetCost(AnnotationId cost_var, double cost) { costs_[cost_var] = cost; }
  double CostOf(AnnotationId cost_var) const {
    auto it = costs_.find(cost_var);
    return it == costs_.end() ? 0.0 : it->second;
  }

  const std::vector<DdpExecution>& executions() const { return executions_; }
  const std::map<AnnotationId, double>& costs() const { return costs_; }

  /// Sorts transitions within executions, sorts and dedupes executions.
  void Simplify();

  // DdpFacade interface (what ir::Adopt reads) ------------------------------
  size_t ddp_num_executions() const override { return executions_.size(); }
  size_t ddp_num_transitions(size_t exec) const override {
    return executions_[exec].transitions.size();
  }
  DdpTransitionView ddp_transition(size_t exec, size_t t) const override;
  std::vector<std::pair<AnnotationId, double>> ddp_costs() const override;

 private:
  std::vector<DdpExecution> executions_;
  std::map<AnnotationId, double> costs_;
};

}  // namespace prox

#endif  // PROX_PROVENANCE_DDP_EXPR_H_
