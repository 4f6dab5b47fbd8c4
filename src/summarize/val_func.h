#ifndef PROX_SUMMARIZE_VAL_FUNC_H_
#define PROX_SUMMARIZE_VAL_FUNC_H_

#include <string>

#include "kernels/batch_eval.h"
#include "provenance/eval_result.h"

namespace prox {

/// \brief VAL-FUNC: the per-valuation error between the original and
/// summary provenance (Definition 3.2.2). The distance is the (weighted)
/// average of this function over a valuation class.
///
/// `orig` is v(p₀) *projected into the summary's coordinate space* (the
/// vector transformation of Example 5.2.1) and `summ` is v^{h,φ}(p'), so
/// implementations compare like with like.
class ValFunc {
 public:
  virtual ~ValFunc() = default;

  virtual double Compute(const EvalResult& orig,
                         const EvalResult& summ) const = 0;

  /// Upper bound on Compute for any valuation, given the all-true
  /// evaluation of p₀ — distances are divided by this bound to normalize
  /// into [0,1] as in §6.3.
  virtual double MaxError(const EvalResult& all_true_orig) const = 0;

  virtual std::string name() const = 0;

  /// The batched counterpart of Compute (kernels/batch_eval.h): the
  /// reduction the distance oracle prices this VAL-FUNC with, bit for bit.
  virtual kernels::ValFuncBatchKind batch_kind() const = 0;

  /// For batch_kind() == kDdp: the feasibility-mismatch penalty the batch
  /// error kernel applies (DdpDifferenceValFunc's max_error()).
  virtual double batch_mismatch_penalty() const { return 0.0; }
};

/// Expected-error VAL-FUNC (Section 3.2, choice 1): |v(p) − v'(p')| on
/// scalars; the L1 distance on aggregation vectors.
class AbsoluteDifferenceValFunc : public ValFunc {
 public:
  double Compute(const EvalResult& orig, const EvalResult& summ) const override;
  double MaxError(const EvalResult& all_true_orig) const override;
  std::string name() const override { return "AbsoluteDifference"; }
  kernels::ValFuncBatchKind batch_kind() const override {
    return kernels::ValFuncBatchKind::kL1;
  }
};

/// Fraction-of-disagreeing-valuations VAL-FUNC (choice 2): 0 when the two
/// evaluations coincide, 1 otherwise (the per-valuation weight w(v) is
/// applied by the distance oracle).
class DisagreementValFunc : public ValFunc {
 public:
  double Compute(const EvalResult& orig, const EvalResult& summ) const override;
  double MaxError(const EvalResult& all_true_orig) const override;
  std::string name() const override { return "Disagreement"; }
  kernels::ValFuncBatchKind batch_kind() const override {
    return kernels::ValFuncBatchKind::kDisagreement;
  }
};

/// Euclidean VAL-FUNC (choice 3): L2 distance between aggregation vectors
/// — the function used for the MovieLens and Wikipedia experiments
/// (Table 5.1). Scalars degenerate to |a − b|.
class EuclideanValFunc : public ValFunc {
 public:
  double Compute(const EvalResult& orig, const EvalResult& summ) const override;
  double MaxError(const EvalResult& all_true_orig) const override;
  std::string name() const override { return "Euclidean"; }
  kernels::ValFuncBatchKind batch_kind() const override {
    return kernels::ValFuncBatchKind::kL2;
  }
};

/// The DDP difference function of Example 5.2.2 on ⟨cost, feasible⟩ pairs:
/// |C − C'| when both feasible, 0 when both infeasible, and the maximum
/// possible cost difference (max cost per transition × max transitions per
/// execution, 10 × 5 in the thesis) when the feasibility bits disagree.
class DdpDifferenceValFunc : public ValFunc {
 public:
  DdpDifferenceValFunc(double max_cost_per_transition = 10.0,
                       double max_transitions = 5.0)
      : max_error_(max_cost_per_transition * max_transitions) {}

  double Compute(const EvalResult& orig, const EvalResult& summ) const override;
  double MaxError(const EvalResult& all_true_orig) const override;
  std::string name() const override { return "DdpDifference"; }
  kernels::ValFuncBatchKind batch_kind() const override {
    return kernels::ValFuncBatchKind::kDdp;
  }
  double batch_mismatch_penalty() const override { return max_error_; }

  /// The precomputed feasibility-mismatch bound, for persistence
  /// (prox::store round-trips it through the constructor arguments).
  double max_error() const { return max_error_; }

 private:
  double max_error_;
};

}  // namespace prox

#endif  // PROX_SUMMARIZE_VAL_FUNC_H_
