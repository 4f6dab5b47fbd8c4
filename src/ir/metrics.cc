#include "ir/metrics.h"

#include "obs/metrics.h"

namespace prox {
namespace ir {

void CountMonomialInterned() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "prox_ir_monomials_interned_total",
      "Distinct monomials hash-consed into a shared ir::TermPool.");
  c->Increment();
}

void CountApplyTermShared(uint64_t n) {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "prox_ir_apply_terms_shared_total",
      "Terms whose interned monomial survived Apply() untouched "
      "(copy-on-write structural sharing).");
  c->Increment(n);
}

void CountApplyTermRewritten(uint64_t n) {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "prox_ir_apply_terms_rewritten_total",
      "Terms whose monomial Apply() had to re-emit (a factor changed under "
      "the homomorphism, or the source span lived in a dropped overlay).");
  c->Increment(n);
}

void CountSizeCacheHit() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "prox_ir_size_cache_hits_total",
      "Size() calls served from the expression's cached size header "
      "instead of a full term traversal.");
  c->Increment();
}

}  // namespace ir
}  // namespace prox
