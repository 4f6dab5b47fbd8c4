#include "ir/poly_expr.h"

#include <algorithm>
#include <numeric>

#include "exec/thread_pool.h"
#include "ir/metrics.h"
#include "provenance/annotation.h"

namespace prox {
namespace ir {

void IrPolynomialExpression::AddTermIds(MonomialId mono, uint64_t coeff) {
  if (coeff == 0) return;  // AddTerm drops zero coefficients
  mono_.push_back(mono);
  coeff_.push_back(coeff);
}

void IrPolynomialExpression::Canonicalize() {
  const PoolView pv = view();
  const size_t n = mono_.size();
  std::vector<uint32_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0u);
  std::sort(idx.begin(), idx.end(), [&](uint32_t a, uint32_t b) {
    return pv.CompareMonomials(mono_[a], mono_[b]) < 0;
  });
  std::vector<MonomialId> nm;
  std::vector<uint64_t> nc;
  nm.reserve(n);
  nc.reserve(n);
  for (uint32_t i : idx) {
    if (!nm.empty() && pv.MonomialsEqual(nm.back(), mono_[i])) {
      nc.back() += coeff_[i];
    } else {
      nm.push_back(mono_[i]);
      nc.push_back(coeff_[i]);
    }
  }
  mono_ = std::move(nm);
  coeff_ = std::move(nc);
  size_ = 0;
  for (MonomialId m : mono_) size_ += pv.mono_len(m);
}

int64_t IrPolynomialExpression::Size() const {
  CountSizeCacheHit();
  return size_;
}

void IrPolynomialExpression::CollectAnnotations(
    std::vector<AnnotationId>* out) const {
  const PoolView pv = view();
  // Appends the sorted distinct variable list to `out` without re-sorting
  // the destination (Polynomial::Variables order).
  std::vector<AnnotationId> vars;
  for (MonomialId m : mono_) {
    const AnnotationId* f = pv.mono_data(m);
    vars.insert(vars.end(), f, f + pv.mono_len(m));
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  out->insert(out->end(), vars.begin(), vars.end());
}

std::unique_ptr<ProvenanceExpression> IrPolynomialExpression::Apply(
    const Homomorphism& h) const {
  const bool worker = exec::InParallelWorker();
  auto out = std::make_unique<IrPolynomialExpression>(pool_);
  std::shared_ptr<TermPool> fresh;
  TermPool* target = pool_.get();
  if (worker) {
    fresh = std::make_shared<TermPool>();
    target = fresh.get();
  }
  const PoolView pv = view();

  std::vector<MonomialId> mono_memo(pool_->num_monomials(), kInvalidMonomial);
  std::vector<MonomialId> mono_memo_ov(
      overlay_ ? overlay_->num_monomials() : 0, kInvalidMonomial);
  std::vector<AnnotationId> scratch;
  uint64_t shared_terms = 0;
  uint64_t rewritten_terms = 0;

  out->mono_.reserve(mono_.size());
  out->coeff_.reserve(mono_.size());
  for (size_t i = 0; i < mono_.size(); ++i) {
    const MonomialId src = mono_[i];
    MonomialId& slot = (src & kOverlayBit)
                           ? mono_memo_ov[src & ~kOverlayBit]
                           : mono_memo[src];
    if (slot == kInvalidMonomial) {
      const AnnotationId* data = pv.mono_data(src);
      const uint32_t len = pv.mono_len(src);
      scratch.assign(data, data + len);
      bool changed = false;
      for (uint32_t k = 0; k < len; ++k) {
        const AnnotationId m = h.Map(scratch[k]);
        if (m != scratch[k]) {
          scratch[k] = m;
          changed = true;
        }
      }
      if (!changed && !(src & kOverlayBit)) {
        slot = src;
      } else {
        if (changed) std::sort(scratch.begin(), scratch.end());
        slot = worker
                   ? (target->AppendMonomial(scratch.data(), scratch.size()) |
                      kOverlayBit)
                   : target->InternMonomial(scratch.data(), scratch.size());
      }
    }
    if (slot == src) {
      ++shared_terms;
    } else {
      ++rewritten_terms;
    }
    out->mono_.push_back(slot);
    out->coeff_.push_back(coeff_[i]);
  }
  if (fresh && fresh->num_monomials() > 0) out->overlay_ = std::move(fresh);
  CountApplyTermShared(shared_terms);
  CountApplyTermRewritten(rewritten_terms);
  out->Canonicalize();
  return out;
}

EvalResult IrPolynomialExpression::Evaluate(
    const MaterializedValuation& v) const {
  const PoolView pv = view();
  // Polynomial::EvaluateNat with a 0/1 valuation: the sum of coefficients
  // of monomials whose factors are all true.
  uint64_t sum = 0;
  for (size_t i = 0; i < mono_.size(); ++i) {
    uint64_t prod = coeff_[i];
    const AnnotationId* f = pv.mono_data(mono_[i]);
    const uint32_t len = pv.mono_len(mono_[i]);
    for (uint32_t k = 0; k < len; ++k) {
      if (prod == 0) break;
      prod *= v.truth(f[k]) ? 1 : 0;
    }
    sum += prod;
  }
  return EvalResult::Scalar(static_cast<double>(sum));
}

std::unique_ptr<ProvenanceExpression> IrPolynomialExpression::Clone() const {
  return std::make_unique<IrPolynomialExpression>(*this);
}

kernels::BatchProgram IrPolynomialExpression::LowerBatch() const {
  const PoolView pv = view();
  kernels::BatchProgram p;
  p.shape = kernels::BatchProgram::Shape::kPolynomial;
  p.kind = EvalResult::Kind::kScalar;
  p.poly_rows.reserve(mono_.size());
  for (size_t i = 0; i < mono_.size(); ++i) {
    p.poly_rows.push_back(kernels::PolyBatchRow{
        kernels::MonoSpan{pv.mono_data(mono_[i]), pv.mono_len(mono_[i])},
        coeff_[i]});
  }
  return p;
}

std::string IrPolynomialExpression::ToString(
    const AnnotationRegistry& registry) const {
  if (mono_.empty()) return "0";
  const PoolView pv = view();
  std::string out;
  for (size_t i = 0; i < mono_.size(); ++i) {
    if (i > 0) out += " + ";
    const AnnotationId* f = pv.mono_data(mono_[i]);
    const uint32_t len = pv.mono_len(mono_[i]);
    bool printed = false;
    if (coeff_[i] != 1 || len == 0) {
      out += std::to_string(coeff_[i]);
      printed = true;
    }
    uint32_t k = 0;
    while (k < len) {
      uint32_t j = k;
      while (j < len && f[j] == f[k]) ++j;
      if (printed) out += "·";
      out += registry.name(f[k]);
      if (j - k > 1) out += "^" + std::to_string(j - k);
      printed = true;
      k = j;
    }
  }
  return out;
}

}  // namespace ir
}  // namespace prox
