#include "kernels/metrics.h"

#include "obs/metrics.h"

namespace prox {
namespace kernels {

void PublishSimdTier(int tier) {
  static obs::Gauge* g = obs::MetricsRegistry::Default().GetGauge(
      "prox_simd_tier",
      "SIMD tier the batch kernels dispatch to: 0 scalar, 1 sse4.2, 2 avx2 "
      "(min of CPU support, PROX_SIMD and the --simd cap).");
  g->Set(static_cast<double>(tier));
}

void CountBatchEvals(uint64_t n) {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "prox_kernel_batch_evals_total",
      "Valuations priced through the batched VAL-FUNC kernels (one per "
      "valuation per priced candidate).");
  c->Increment(n);
}

void CountScalarFallback(uint64_t n) {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "prox_kernel_scalar_fallback_total",
      "Distance calls that fell back to the per-valuation scalar path "
      "(non-batchable expression, VAL-FUNC or layout mismatch).");
  c->Increment(n);
}

uint64_t BatchEvalsForTesting() {
  CountBatchEvals(0);  // ensure the counter exists
  return obs::MetricsRegistry::Default()
      .GetCounter("prox_kernel_batch_evals_total", "")
      ->value();
}

uint64_t ScalarFallbacksForTesting() {
  CountScalarFallback(0);
  return obs::MetricsRegistry::Default()
      .GetCounter("prox_kernel_scalar_fallback_total", "")
      ->value();
}

}  // namespace kernels
}  // namespace prox
