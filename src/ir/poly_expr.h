#ifndef PROX_IR_POLY_EXPR_H_
#define PROX_IR_POLY_EXPR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/term_pool.h"
#include "kernels/batch_eval.h"
#include "provenance/expression.h"

namespace prox {
namespace ir {

/// \brief Flat ℕ[Ann] provenance — the summarizable form of a semiring
/// Polynomial (ir::Adopt builds it).
///
/// Rows are (monomial id, coefficient) pairs kept in the canonical
/// order of the tree Polynomial: monomial content ascending (its
/// std::map<Mono,...> iteration order), with content-equal rows merged by
/// summing coefficients.
class IrPolynomialExpression : public ProvenanceExpression,
                               public kernels::BatchEvalFacade {
 public:
  explicit IrPolynomialExpression(std::shared_ptr<TermPool> pool)
      : pool_(std::move(pool)) {}

  size_t num_terms() const { return mono_.size(); }
  const std::shared_ptr<TermPool>& pool() const { return pool_; }

  /// Row `i`'s factor span and coefficient, in canonical order.
  const AnnotationId* term_data(size_t i) const {
    return view().mono_data(mono_[i]);
  }
  uint32_t term_len(size_t i) const { return view().mono_len(mono_[i]); }
  uint64_t coeff(size_t i) const { return coeff_[i]; }

  /// Builder (main thread): `mono` must be interned in the shared pool.
  void AddTermIds(MonomialId mono, uint64_t coeff);

  /// Sorts rows by monomial content and merges equal rows (coefficient
  /// sum); recomputes the cached size.
  void Canonicalize();

  // ProvenanceExpression interface -----------------------------------------
  int64_t Size() const override;
  void CollectAnnotations(std::vector<AnnotationId>* out) const override;
  std::unique_ptr<ProvenanceExpression> Apply(
      const Homomorphism& h) const override;
  EvalResult Evaluate(const MaterializedValuation& v) const override;
  std::unique_ptr<ProvenanceExpression> Clone() const override;
  std::string ToString(const AnnotationRegistry& registry) const override;
  const kernels::BatchEvalFacade* AsBatchEval() const override { return this; }

  // BatchEvalFacade interface ----------------------------------------------
  kernels::BatchProgram LowerBatch() const override;

 private:
  PoolView view() const { return PoolView(pool_.get(), overlay_.get()); }

  std::shared_ptr<TermPool> pool_;
  std::shared_ptr<const TermPool> overlay_;

  std::vector<MonomialId> mono_;
  std::vector<uint64_t> coeff_;
  int64_t size_ = 0;
};

}  // namespace ir
}  // namespace prox

#endif  // PROX_IR_POLY_EXPR_H_
