#ifndef PROX_IR_AGG_EXPR_H_
#define PROX_IR_AGG_EXPR_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ir/term_pool.h"
#include "kernels/batch_eval.h"
#include "provenance/agg_value.h"
#include "provenance/expression.h"
#include "provenance/guard.h"
#include "provenance/monomial.h"

namespace prox {
namespace ir {

/// One aggregate tensor term `monomial · [guard] ⊗ (value, count)` as read
/// through IrAggregateExpression::term(). The spans point into the pool
/// arena: consume a view before the next mutation or intern, never store
/// it.
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

/// The rows of an expression that a merge homomorphism moves, lowered for
/// the batch kernels (IrAggregateExpression::LowerMoved). `rows[i]` is in
/// the canonical order with equal-keyed rows merged and its `group` field
/// 0; it folds right before source row `before[i]` among the rows the
/// merge left in place. Mapped factor spans point into `arena`, the others
/// into the expression's pool: valid until the next call, and while the
/// pool is not interned into. Step pricing lowers only the merges whose
/// distance it folds, straight into the fold's rows; sizes come from
/// IrAggregateExpression::MovedSize.
struct MovedRows {
  std::vector<kernels::AggBatchRow> rows;
  std::vector<uint32_t> before;
  std::vector<AnnotationId> arena;
};

/// \brief Flat structure-of-arrays aggregate expression — the one form of
/// the aggregate provenance structure of Section 2.2 ([7, 6]) shared by the
/// MovieLens and Wikipedia datasets (docs/IR.md).
///
/// One term is a row across four parallel columns (monomial id, guard id,
/// group key, aggregate value); factor spans live in the shared TermPool
/// arena. Producers append rows (AddTerm / AddTermIds) and finish with one
/// Canonicalize(). Canonical form sorts rows by (group, monomial content,
/// guard-less first, guard content) and merges equal-keyed rows under the
/// congruence `k⊗v₁ ⊕ k⊗v₂ ≡ k⊗(v₁ agg v₂)` (Example 3.1.1's step from
/// `U₁⊗(3,1) ⊕ U₂⊗(5,1)` to `Female⊗(5,2)`). Ties break on the source row
/// index, so the order is total and equal-keyed rows merge in source
/// order; re-sorting one group's rows alone gives the sequence a full
/// Canonicalize gives. The frozen goldens in tests/ir/golden/ pin the
/// result: ToString(), Evaluate() and term() must match them byte for
/// byte.
///
/// Apply() is copy-on-write: rows whose factors the homomorphism fixes
/// keep their interned monomial id (no allocation, no hashing); only
/// touched rows are re-emitted. On the main thread re-emitted monomials
/// are interned into the shared pool; on an exec worker they go to a
/// fresh expression-local overlay pool (ids tagged kOverlayBit), so
/// workers never mutate shared state.
class IrAggregateExpression : public ProvenanceExpression,
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

  /// Term `i` in canonical order.
  AggTermView term(size_t i) const;
  AnnotationId group(size_t i) const { return group_[i]; }

  /// Builder (main thread): append a row, then Canonicalize() once.
  /// `mono` / `guard` must be ids in the shared pool (untagged).
  void AddTermIds(MonomialId mono, GuardId guard, AnnotationId group,
                  AggValue value);

  /// Builder (main thread): interns `mono` (and `guard`, when set) into
  /// the shared pool and appends the row.
  void AddTerm(const Monomial& mono, AnnotationId group, AggValue value,
               const std::optional<Guard>& guard = std::nullopt);

  /// Row `i` with its monomial and guard re-interned into `pool` — the
  /// one way a row moves between pools (ir::Adopt, selections, snapshot
  /// encoding). Main thread only.
  struct InternedRow {
    MonomialId mono = kInvalidMonomial;
    GuardId guard = kNoGuard;
    AnnotationId group = kNoAnnotation;
    AggValue value;
  };
  InternedRow InternRow(size_t i, TermPool* pool) const;

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
  std::unique_ptr<ProvenanceExpression> Clone() const override;
  std::string ToString(const AnnotationRegistry& registry) const override;
  const IrAggregateExpression* AsAggregate() const override { return this; }
  const kernels::BatchEvalFacade* AsBatchEval() const override { return this; }

  // BatchEvalFacade interface ----------------------------------------------
  kernels::BatchProgram LowerBatch() const override;

  /// The rows Apply(h) would emit for the source rows `rows` (ascending),
  /// where h maps every annotation of `roots` (sorted) to `target` and
  /// fixes the rest: factors and group keys mapped, re-sorted into the
  /// canonical order and merged — the float folds a full Apply performs
  /// for them. `rows` must hold every row that h moves in the groups they
  /// end up in; the rows h leaves in place keep their order and never
  /// merge with a moved row (`target` occurs in no row). Each lowered row
  /// is placed among the source rows [begin, end), which must be sorted,
  /// by a binary search of the canonical order: `before` is the first of
  /// them that sorts after it, or `end`. Reads only, so safe on exec
  /// workers.
  void LowerMoved(const uint32_t* rows, size_t num_rows,
                  const AnnotationId* roots, size_t num_roots,
                  AnnotationId target, uint32_t begin, uint32_t end,
                  MovedRows* out) const;

  /// The number of factors LowerMoved emits for the same `rows` and
  /// `roots`, counted without lowering them. Apply keeps a monomial's
  /// length (it does not collapse `t·t`) and the target occurs in no row,
  /// so two moved rows merge exactly when their mapped groups, their
  /// monomials' and guard bodies' non-root factors and lengths, and their
  /// guard scalars, ops and thresholds compare equal the way Canonicalize
  /// compares them (+0.0 equals -0.0): the size is the moved rows' size
  /// minus that of every row that merges into an earlier one. Reads only,
  /// so safe on exec workers.
  int64_t MovedSize(const uint32_t* rows, size_t num_rows,
                    const AnnotationId* roots, size_t num_roots) const;

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
