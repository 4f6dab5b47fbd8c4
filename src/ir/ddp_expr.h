#ifndef PROX_IR_DDP_EXPR_H_
#define PROX_IR_DDP_EXPR_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ir/term_pool.h"
#include "kernels/batch_eval.h"
#include "provenance/expression.h"
#include "provenance/monomial.h"

namespace prox {
namespace ir {

/// One DDP transition as read through IrDdpExpression::transition(): a
/// user effort ⟨c,1⟩ or a DB guard ⟨0,[m]≠0⟩ / ⟨0,[m]=0⟩. `db` points
/// into the pool arena: consume the view before the next mutation or
/// intern, never store it.
struct DdpTransitionView {
  bool user = true;
  AnnotationId cost_var = kNoAnnotation;  // user transitions
  const AnnotationId* db = nullptr;       // db transitions
  size_t db_len = 0;
  bool nonzero = true;
};

/// \brief Flat DDP provenance — the one form of the DDP structure: a
/// +-sum of executions over the tropical × boolean semiring pair of [17]
/// (Example 5.2.2).
///
/// Executions are flattened into one transition-row vector addressed by
/// per-execution offsets; DB-guard monomials are spans in the shared
/// TermPool. Producers append executions (BeginExecution, then
/// Add*Transition) and costs, and finish with one Canonicalize():
/// transitions sorted within executions (user before db, then cost
/// variable, db monomial content, `= 0` before `≠ 0`), executions sorted
/// lexicographically and deduped — sound because the tropical/existential
/// interpretation is additively idempotent. Evaluation under a valuation
/// yields `⟨C, true⟩` where C is the minimum total user effort over
/// executions whose DB guards hold, or `⟨0, false⟩` when none is
/// feasible. The frozen goldens in tests/ir/golden/ pin the canonical
/// order, costs and ToString() byte for byte.
class IrDdpExpression : public ProvenanceExpression,
                        public kernels::BatchEvalFacade {
 public:
  explicit IrDdpExpression(std::shared_ptr<TermPool> pool)
      : pool_(std::move(pool)) {}

  size_t num_executions() const { return exec_off_.empty() ? 0 : exec_off_.size() - 1; }
  size_t num_transitions(size_t exec) const {
    return exec_off_[exec + 1] - exec_off_[exec];
  }
  /// Transition `t` of execution `exec`, in canonical order.
  DdpTransitionView transition(size_t exec, size_t t) const;
  /// The cost table, sorted by cost variable.
  const std::vector<std::pair<AnnotationId, double>>& costs() const {
    return costs_;
  }
  const std::shared_ptr<TermPool>& pool() const { return pool_; }

  /// Builder (main thread): start a new execution, then append its
  /// transitions; finish with Canonicalize(). `db` must be interned in
  /// the shared pool (untagged).
  void BeginExecution();
  void AddUserTransition(AnnotationId cost_var);
  void AddDbTransition(MonomialId db, bool nonzero);
  /// Interns `db` into the shared pool, then appends it.
  void AddDbTransition(const Monomial& db, bool nonzero);
  /// Associates a cost with a cost variable. When a homomorphism merges
  /// cost variables, the summary variable's cost is the max of its
  /// members' costs (consistent with the MAX φ combiner of Table 5.1).
  void SetCost(AnnotationId cost_var, double cost);

  /// Sorts transitions within executions, sorts/dedupes executions, and
  /// recomputes the cached size.
  void Canonicalize();

  /// Keeps the first `n` executions (in the current order) and drops the
  /// rest; a no-op when there are at most `n`.
  void TruncateExecutions(size_t n);

  double CostOf(AnnotationId cost_var) const;

  // ProvenanceExpression interface -----------------------------------------
  int64_t Size() const override;
  void CollectAnnotations(std::vector<AnnotationId>* out) const override;
  std::unique_ptr<ProvenanceExpression> Apply(
      const Homomorphism& h) const override;
  EvalResult Evaluate(const MaterializedValuation& v) const override;
  std::unique_ptr<ProvenanceExpression> Clone() const override;
  std::string ToString(const AnnotationRegistry& registry) const override;
  const IrDdpExpression* AsDdp() const override { return this; }
  const kernels::BatchEvalFacade* AsBatchEval() const override { return this; }

  // BatchEvalFacade interface ----------------------------------------------
  kernels::BatchProgram LowerBatch() const override;

 private:
  /// One transition row. User rows keep `db` invalid and `nonzero` true,
  /// so CompareRows only looks at db/nonzero between two db rows.
  struct TrRow {
    bool user = true;
    AnnotationId cost_var = kNoAnnotation;
    MonomialId db = kInvalidMonomial;
    bool nonzero = true;
  };

  PoolView view() const { return PoolView(pool_.get(), overlay_.get()); }
  int CompareRows(const PoolView& pv, const TrRow& a, const TrRow& b) const;

  std::shared_ptr<TermPool> pool_;
  std::shared_ptr<const TermPool> overlay_;

  std::vector<TrRow> rows_;
  std::vector<uint32_t> exec_off_;  // num_executions()+1 offsets into rows_
  std::vector<std::pair<AnnotationId, double>> costs_;  // sorted by var
  int64_t size_ = 0;
};

}  // namespace ir
}  // namespace prox

#endif  // PROX_IR_DDP_EXPR_H_
