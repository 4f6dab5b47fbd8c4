#ifndef PROX_IR_DDP_EXPR_H_
#define PROX_IR_DDP_EXPR_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ir/term_pool.h"
#include "kernels/batch_eval.h"
#include "provenance/expression.h"
#include "provenance/facade.h"

namespace prox {
namespace ir {

/// \brief Flat DDP provenance — the runtime form of the DDP structure.
///
/// Executions are flattened into one transition-row vector addressed by
/// per-execution offsets; DB-guard monomials are spans in the shared
/// TermPool. Canonical form (transitions sorted within executions,
/// executions sorted and deduped) and evaluation order replicate the
/// builder's Simplify() decision for decision, so costs, ToString() and
/// the facade view are byte-identical to the frozen goldens.
class IrDdpExpression : public ProvenanceExpression,
                        public DdpFacade,
                        public kernels::BatchEvalFacade {
 public:
  explicit IrDdpExpression(std::shared_ptr<TermPool> pool)
      : pool_(std::move(pool)) {}

  size_t num_executions() const { return exec_off_.empty() ? 0 : exec_off_.size() - 1; }
  const std::shared_ptr<TermPool>& pool() const { return pool_; }

  /// Builder (main thread): start a new execution, then append its
  /// transitions; finish with Canonicalize(). `db` must be interned in
  /// the shared pool (untagged).
  void BeginExecution();
  void AddUserTransition(AnnotationId cost_var);
  void AddDbTransition(MonomialId db, bool nonzero);
  void SetCost(AnnotationId cost_var, double cost);

  /// Sorts transitions within executions, sorts/dedupes executions, and
  /// recomputes the cached size — the builder's Simplify(), flat.
  void Canonicalize();

  double CostOf(AnnotationId cost_var) const;

  // ProvenanceExpression interface -----------------------------------------
  int64_t Size() const override;
  void CollectAnnotations(std::vector<AnnotationId>* out) const override;
  std::unique_ptr<ProvenanceExpression> Apply(
      const Homomorphism& h) const override;
  EvalResult Evaluate(const MaterializedValuation& v) const override;
  EvalResult ProjectEvalResult(const EvalResult& base,
                               const Homomorphism& h) const override {
    (void)h;
    return base;
  }
  std::unique_ptr<ProvenanceExpression> Clone() const override;
  std::string ToString(const AnnotationRegistry& registry) const override;
  const DdpFacade* AsDdp() const override { return this; }
  const kernels::BatchEvalFacade* AsBatchEval() const override { return this; }

  // BatchEvalFacade interface ----------------------------------------------
  kernels::BatchProgram LowerBatch() const override;

  // DdpFacade interface ----------------------------------------------------
  size_t ddp_num_executions() const override { return num_executions(); }
  size_t ddp_num_transitions(size_t exec) const override {
    return exec_off_[exec + 1] - exec_off_[exec];
  }
  DdpTransitionView ddp_transition(size_t exec, size_t t) const override;
  std::vector<std::pair<AnnotationId, double>> ddp_costs() const override {
    return costs_;
  }

 private:
  /// One transition row. For user transitions `db` is the empty monomial
  /// and `nonzero` is true (the defaults of the builder's DdpTransition),
  /// so content comparison over (user, cost_var, db, nonzero) reproduces
  /// the builder's std::tie order exactly.
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
