#ifndef PROX_IR_METRICS_H_
#define PROX_IR_METRICS_H_

#include <cstdint>

namespace prox {
namespace ir {

/// Counter bumpers for the IR hot path (docs/OBSERVABILITY.md catalogues
/// the names). Each caches its obs::Counter pointer in a function-local
/// static, so the hot-path cost is one relaxed atomic add.

/// A monomial was newly interned into a shared TermPool (overlay appends
/// are not counted — they are per-Apply scratch, not pool growth).
void CountMonomialInterned();

/// Apply() kept a term's interned monomial untouched (the homomorphism
/// fixed every factor), so the term was shared structurally instead of
/// being re-emitted.
void CountApplyTermShared(uint64_t n = 1);

/// Apply() rewrote a term's monomial (at least one factor changed, or the
/// source lived in an overlay that the result does not carry).
void CountApplyTermRewritten(uint64_t n = 1);

/// Size() was answered from the expression's cached size header.
void CountSizeCacheHit();

}  // namespace ir
}  // namespace prox

#endif  // PROX_IR_METRICS_H_
