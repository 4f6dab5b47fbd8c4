#ifndef PROX_KERNELS_BATCH_EVAL_H_
#define PROX_KERNELS_BATCH_EVAL_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "kernels/valuation_block.h"
#include "provenance/agg_value.h"
#include "provenance/annotation.h"
#include "provenance/eval_result.h"
#include "provenance/guard.h"
#include "provenance/homomorphism.h"

namespace prox {
namespace kernels {

/// \brief prox::kernels — batched VAL-FUNC evaluation for the distance
/// hot path (docs/KERNELS.md).
///
/// The oracle spends its time evaluating one candidate expression under
/// many valuations. Instead of walking the expression once per valuation,
/// a candidate is *lowered* once per Distance call into a flat
/// BatchProgram (plain arrays of factor spans and per-row constants), and
/// each reduction chunk of 8 valuations is then evaluated in one pass
/// over the program rows — the term walk hoisted to the outer loop, the
/// per-valuation work vectorized across lanes.
///
/// Every kernel is bit-identical to the scalar per-valuation path by
/// construction: vectorization is across *lanes* (valuations), never
/// across a lane's own fold order, so each lane performs exactly the
/// floating-point operation sequence the scalar evaluator performs.
/// SSE4.2/AVX2 selection (common/cpu_features.h) therefore changes speed
/// only, never results; `PROX_SIMD=0` proves it.

/// One monomial as a borrowed factor span. Points into the expression's
/// TermPool arena; valid while the expression lives unmutated.
struct MonoSpan {
  const AnnotationId* data = nullptr;
  uint32_t len = 0;
};

/// Aggregate fold flavor, hoisted out of the per-row FoldAggregate switch
/// (kSum/kCount/kAvg all add; the contribution is pre-resolved per row).
enum class AggFold : uint8_t { kAdd, kMax, kMin };

/// One lowered aggregate term row. The guard comparison collapses to two
/// precomputed booleans: the guard value is `scalar` when the body
/// monomial is true and 0.0 otherwise, so the comparison outcome only
/// depends on the body bit.
struct AggBatchRow {
  MonoSpan mono;
  MonoSpan guard_mono;
  uint8_t has_guard = 0;
  uint8_t guard_if_true = 0;   ///< compare(scalar, op, threshold)
  uint8_t guard_if_false = 0;  ///< compare(0.0, op, threshold)
  uint32_t group = 0;          ///< dense group slot index
  double contribution = 0.0;   ///< kCount ? value.count : value.value
  double count_add = 0.0;      ///< value.count
};

/// One lowered DDP transition row; user rows carry their resolved cost.
struct DdpBatchRow {
  uint8_t user = 1;
  uint8_t nonzero = 1;
  AnnotationId cost_var = kNoAnnotation;
  double cost = 0.0;
  MonoSpan db;
};

struct PolyBatchRow {
  MonoSpan mono;
  uint64_t coeff = 0;
};

/// \brief A candidate expression lowered to flat arrays — everything the
/// batch kernels need, with virtual dispatch, id resolution and guard
/// comparisons paid once per Distance call instead of once per valuation.
///
/// Borrowed pointers (factor spans, the group array) reference the source
/// expression; the program must not outlive it.
struct BatchProgram {
  enum class Shape : uint8_t { kAggregate, kDdp, kPolynomial };

  Shape shape = Shape::kAggregate;
  /// Result kind: kScalar for polynomials and group-less aggregates,
  /// kVector for grouped aggregates, kCostBool for DDP.
  EvalResult::Kind kind = EvalResult::Kind::kScalar;

  // Aggregate rows (canonical row order — the scalar fold order).
  AggKind agg = AggKind::kSum;
  AggFold fold = AggFold::kAdd;
  std::vector<AggBatchRow> agg_rows;
  const AnnotationId* groups = nullptr;  ///< sorted; borrowed
  size_t num_groups = 0;

  // DDP rows, flattened with per-execution offsets (canonical order).
  std::vector<DdpBatchRow> ddp_rows;
  std::vector<uint32_t> ddp_exec_off;  ///< num_executions + 1 offsets

  // Polynomial rows (canonical order).
  std::vector<PolyBatchRow> poly_rows;
};

/// \brief The SoA result of evaluating a BatchProgram over a
/// ValuationBlock: lane `l`'s EvalResult, in columns.
///
/// Vector results store `values[g * kMaxLanes + lane]` over the program's
/// group array; scalar results use `values[lane]`; cost/bool results use
/// `costs[lane]` and the `feasible` byte mask. Counts mirror EvalResult's
/// auxiliary coordinate counts (populated for vector results).
struct BlockEval {
  EvalResult::Kind kind = EvalResult::Kind::kScalar;
  size_t width = 0;
  const AnnotationId* groups = nullptr;  ///< borrowed from the program
  size_t num_groups = 0;
  std::vector<double> values;
  std::vector<double> counts;
  std::vector<double> costs;
  std::array<uint8_t, kMaxLanes> feasible{};

  /// Reassembles lane `lane` as a plain EvalResult (tests).
  EvalResult Extract(size_t lane) const;
};

/// The batched VAL-FUNC reductions, one per ValFunc: each is bit-identical
/// to its ValFunc::Compute lane by lane.
enum class ValFuncBatchKind : uint8_t {
  kL1,            ///< AbsoluteDifference
  kL2,            ///< Euclidean
  kDisagreement,  ///< Disagreement
  kDdp,           ///< DdpDifference
};

/// Replicates Guard::Evaluate's comparison step (`value OP threshold`) —
/// used by program lowering to fold a guard into two booleans.
inline bool EvalCompare(double value, CompareOp op, double threshold) {
  switch (op) {
    case CompareOp::kGt:
      return value > threshold;
    case CompareOp::kGe:
      return value >= threshold;
    case CompareOp::kLt:
      return value < threshold;
    case CompareOp::kLe:
      return value <= threshold;
    case CompareOp::kEq:
      return value == threshold;
    case CompareOp::kNe:
      return value != threshold;
  }
  return false;
}

/// \brief Implemented by expressions that can lower themselves into a
/// BatchProgram — the prox::ir flat classes. Exposed through
/// ProvenanceExpression::AsBatchEval() so the oracle gates on capability,
/// not on concrete types.
class BatchEvalFacade {
 public:
  virtual ~BatchEvalFacade() = default;

  /// Lowers the expression. O(terms); call once per Distance call and
  /// amortize over the valuation set.
  virtual BatchProgram LowerBatch() const = 0;
};

/// Evaluates `program` under every lane of `block`, dispatching to the
/// active SIMD tier (common/cpu_features.h). Bit-identical across tiers.
/// Counts nothing: the oracle counts priced valuations
/// (`prox_kernel_batch_evals_total`) once per priced candidate.
void EvaluateBlock(const BatchProgram& program, const ValuationBlock& block,
                   BlockEval* out);

/// \brief One aggregate group's fold state on every lane of a chunk:
/// FoldAggregate's accumulator, the count sum, and which lanes have folded
/// a row yet (FoldAggregate's `first` flag, negated) as 0xFF/0x00 lane
/// bytes. A zeroed accumulator is the state before a group's first row.
struct AggAccumulator {
  double value[kMaxLanes] = {};
  double count[kMaxLanes] = {};
  uint64_t seen = 0;
};

/// Lane-liveness of aggregate row `r` under `block`, one 0xFF/0x00 byte
/// per lane: the AND of its monomial's factor rows, then its guard. Factor
/// `sub` reads `sub_mask` instead of its block row — a merge's scratch
/// annotation, whose truth is φ of the merged rows; pass kNoAnnotation to
/// read every factor from the block.
uint64_t AggRowMask(const ValuationBlock& block, const AggBatchRow& r,
                    AnnotationId sub = kNoAnnotation, uint64_t sub_mask = 0);

/// The aggregate fold: folds rows `rows[0, n)` in order into
/// `acc[rows[i].group]`, row i on the lanes of `masks[i]` (AggRowMask).
/// EvaluateBlock folds a whole program through it from zeroed
/// accumulators; step pricing resumes a group's fold from a saved
/// accumulator. Dispatches to the active SIMD tier; bit-identical across
/// tiers.
void FoldAggRows(AggFold fold, const AggBatchRow* rows, const uint64_t* masks,
                 size_t n, AggAccumulator* acc);

/// A folded group's value per lane: the accumulator, or for AVG
/// MergeAggValues' finalize `count > 0 ? value / count : 0.0`.
inline void FinishAgg(AggKind agg, const AggAccumulator& acc, double* value) {
  for (size_t l = 0; l < kMaxLanes; ++l) {
    value[l] = agg != AggKind::kAvg ? acc.value[l]
               : acc.count[l] > 0   ? acc.value[l] / acc.count[l]
                                    : 0.0;
  }
}

/// Computes the per-lane VAL-FUNC error `err[l] = valfunc(base lane l,
/// cand lane l)` for lanes [0, cand.width). `base` and `cand` must have
/// the same kind and (for vector results) group layout — the oracle
/// projects its base blocks into the candidate's layout (ProjectBlock)
/// first. `ddp_max_error`
/// is DdpDifferenceValFunc's feasibility-mismatch penalty (ignored for
/// other kinds).
void ValFuncBlockErrors(ValFuncBatchKind kind, double ddp_max_error,
                        const BlockEval& base, const BlockEval& cand,
                        double* err);

/// True when `e`'s shape equals the layout (kind, and for vectors the
/// exact sorted group-key array) — the precondition for feeding packed
/// base results and a candidate's BlockEval to ValFuncBlockErrors.
bool EvalMatchesLayout(const EvalResult& e, EvalResult::Kind kind,
                       const AnnotationId* groups, size_t num_groups);

/// Packs `count` (<= kMaxLanes) EvalResults into a BlockEval with the
/// given layout, validating each against it. Returns false (out
/// unspecified) on any mismatch. `groups` is borrowed by the result.
bool PackEvalBlock(const EvalResult* evals, size_t count,
                   EvalResult::Kind kind, const AnnotationId* groups,
                   size_t num_groups, BlockEval* out);

/// \brief Where each group slot of the base layout lands in a candidate
/// program's layout once the cumulative homomorphism h is applied — the
/// projection of v(p₀) into the summary's coordinate space (Example
/// 5.2.1) as a table. When no group key is merged the map is the
/// identity, which leaves the base blocks untouched.
struct GroupRemap {
  bool is_identity = true;
  std::vector<uint32_t> slot;     ///< base slot -> program slot
  std::vector<uint32_t> src_off;  ///< program slot -> its range of `src`
  std::vector<uint32_t> src;      ///< each program slot's base slots, ascending

  bool identity() const { return is_identity; }
};

/// Builds the remap from the base layout (`kind`, sorted `groups`) into
/// `program`'s output layout under `h`; for vector layouts the tables are
/// filled even when the map is the identity. Returns false when no remap
/// reconciles the two: a kind mismatch, a base group whose image is not a
/// program group, or a program group no base group maps to. The distance
/// oracle never sees false: its base layout is p₀'s, which remaps into the
/// groups of every h(p₀).
bool BuildGroupRemap(EvalResult::Kind kind, const AnnotationId* groups,
                     size_t num_groups, const BatchProgram& program,
                     const Homomorphism& h, GroupRemap* out);

/// Folds base slots `slots` (ascending) of the vector block `base` into one
/// coordinate, per lane: `value`/`count` receive kMaxLanes lanes. The
/// per-lane operation sequence of the projection of Example 5.2.1 for one
/// projected coordinate (FoldAggregate per slot, count-weighted sums for
/// AVG; counts stay 0 otherwise), whose per-valuation spec lives in
/// tests/testing/reference_summarizer.h.
void FoldBaseSlots(AggKind agg, const BlockEval& base, const uint32_t* slots,
                   size_t num_slots, double* value, double* count);

/// The base side of a candidate's VAL-FUNC: `base` itself when `remap` is
/// the identity, otherwise `base` folded into the program's group slots
/// in `scratch` — each slot's preimage through FoldBaseSlots. `program`
/// is the candidate's lowering the remap was built for.
const BlockEval& ProjectBlock(const GroupRemap& remap,
                              const BatchProgram& program,
                              const BlockEval& base, BlockEval* scratch);

}  // namespace kernels
}  // namespace prox

#endif  // PROX_KERNELS_BATCH_EVAL_H_
