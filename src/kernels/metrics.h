#ifndef PROX_KERNELS_METRICS_H_
#define PROX_KERNELS_METRICS_H_

#include <cstdint>

namespace prox {
namespace kernels {

/// Counter/gauge bumpers for the batch kernels (docs/OBSERVABILITY.md
/// catalogues the names). Each caches its obs pointer in a function-local
/// static, so the hot-path cost is one relaxed atomic op.

/// Publishes `prox_simd_tier` — the numeric tier the dispatcher resolved
/// (0 scalar, 1 sse4.2, 2 avx2). Called on every kernel dispatch; writes
/// the gauge only when the tier differs from the last one published, so
/// runtime cap changes (--simd, SetSimdTierCap) show up.
void PublishSimdTier(int tier);

/// `n` valuations were priced through the batch kernels (the oracle counts
/// once per valuation per priced candidate).
void CountBatchEvals(uint64_t n);

/// Current counter value, for tests asserting that the batch kernels
/// actually engaged — identity checks are vacuous if the code under test
/// priced nothing.
uint64_t BatchEvalsForTesting();

}  // namespace kernels
}  // namespace prox

#endif  // PROX_KERNELS_METRICS_H_
