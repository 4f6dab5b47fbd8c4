#ifndef PROX_IR_AGG_EXPR_H_
#define PROX_IR_AGG_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "ir/term_pool.h"
#include "kernels/batch_eval.h"
#include "provenance/agg_value.h"
#include "provenance/expression.h"
#include "provenance/facade.h"

namespace prox {
namespace ir {

/// \brief Flat structure-of-arrays aggregate expression — the runtime
/// form of the aggregate provenance structure (docs/IR.md).
///
/// One term is a row across four parallel columns (monomial id, guard id,
/// group key, aggregate value); factor spans live in the shared TermPool
/// arena. Canonical form is the term order the builder's Simplify()
/// produces — (group, monomial, guard) with equal-keyed rows merged — so
/// ToString(), Evaluate() and the facade view match the frozen goldens in
/// tests/ir/golden/ byte for byte.
///
/// Apply() is copy-on-write: rows whose factors the homomorphism fixes
/// keep their interned monomial id (no allocation, no hashing); only
/// touched rows are re-emitted. On the main thread re-emitted monomials
/// are interned into the shared pool; on an exec worker they go to a
/// fresh expression-local overlay pool (ids tagged kOverlayBit), so
/// workers never mutate shared state.
class IrAggregateExpression : public ProvenanceExpression,
                              public AggregateFacade,
                              public kernels::BatchEvalFacade {
 public:
  IrAggregateExpression(AggKind agg, std::shared_ptr<TermPool> pool)
      : agg_(agg), pool_(std::move(pool)) {}

  AggKind agg() const { return agg_; }
  size_t num_terms() const { return mono_.size(); }
  const std::shared_ptr<TermPool>& pool() const { return pool_; }
  bool has_overlay() const { return overlay_ != nullptr; }

  /// Distinct group keys, sorted (the coordinates of evaluation vectors).
  const std::vector<AnnotationId>& Groups() const { return groups_; }

  /// Builder (main thread): append a row, then Canonicalize() once.
  /// `mono` / `guard` must be ids in the shared pool (untagged).
  void AddTermIds(MonomialId mono, GuardId guard, AnnotationId group,
                  AggValue value);

  /// Pre-reserves the four term columns for `extra` upcoming AddTermIds
  /// calls (batched ingest appends grow once instead of per row).
  void ReserveAdditionalTerms(size_t extra) {
    mono_.reserve(mono_.size() + extra);
    guard_.reserve(guard_.size() + extra);
    group_.reserve(group_.size() + extra);
    value_.reserve(value_.size() + extra);
  }

  /// Sorts rows into the canonical order, merges equal-keyed rows
  /// under the aggregation monoid, and rebuilds the group index and the
  /// cached size.
  void Canonicalize();

  /// Fast path for rows appended in a known-canonical order (snapshot
  /// load: rows were saved out of a canonical expression). Verifies the
  /// order with one linear adjacent-pair scan — strictly ascending keys
  /// mean nothing to sort and nothing to merge — and only rebuilds the
  /// derived indexes; any violation falls back to the full Canonicalize().
  void CanonicalizeSorted();

  // ProvenanceExpression interface -----------------------------------------
  int64_t Size() const override;
  void CollectAnnotations(std::vector<AnnotationId>* out) const override;
  std::unique_ptr<ProvenanceExpression> Apply(
      const Homomorphism& h) const override;
  EvalResult Evaluate(const MaterializedValuation& v) const override;
  EvalResult ProjectEvalResult(const EvalResult& base,
                               const Homomorphism& h) const override;
  std::unique_ptr<ProvenanceExpression> Clone() const override;
  std::string ToString(const AnnotationRegistry& registry) const override;
  const AggregateFacade* AsAggregate() const override { return this; }
  const kernels::BatchEvalFacade* AsBatchEval() const override { return this; }

  // AggregateFacade interface ----------------------------------------------
  AggKind agg_kind() const override { return agg_; }
  size_t agg_num_terms() const override { return mono_.size(); }
  AggTermView agg_term(size_t i) const override;

  // BatchEvalFacade interface ----------------------------------------------
  kernels::BatchProgram LowerBatch() const override;

 private:
  PoolView view() const { return PoolView(pool_.get(), overlay_.get()); }

  /// Rebuilds groups_ / group_dense_ / size_ from canonical-order rows.
  void RebuildDerived();

  AggKind agg_;
  std::shared_ptr<TermPool> pool_;
  // Per-expression append-only overlay created by a worker-thread Apply;
  // immutable once the Apply that built it returns, so Clone() shares it.
  std::shared_ptr<const TermPool> overlay_;

  // Parallel term columns, in canonical order after Canonicalize().
  std::vector<MonomialId> mono_;
  std::vector<GuardId> guard_;  // kNoGuard when absent
  std::vector<AnnotationId> group_;
  std::vector<AggValue> value_;

  // Derived by Canonicalize(): sorted distinct groups, per-row dense group
  // index (rows are group-sorted, so these are run ids), cached Size().
  std::vector<AnnotationId> groups_;
  std::vector<uint32_t> group_dense_;
  int64_t size_ = 0;
};

}  // namespace ir
}  // namespace prox

#endif  // PROX_IR_AGG_EXPR_H_
