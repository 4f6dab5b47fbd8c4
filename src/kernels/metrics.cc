#include "kernels/metrics.h"

#include <atomic>
#include <mutex>

#include "obs/metrics.h"

namespace prox {
namespace kernels {

void PublishSimdTier(int tier) {
  // Every kernel call on every exec worker lands here; only a change of
  // tier writes the shared gauge. The mutex keeps the gauge and
  // `published` in step when two callers resolve different tiers.
  static std::atomic<int> published{-1};
  if (published.load(std::memory_order_acquire) == tier) return;
  static std::mutex mu;
  static obs::Gauge* g = obs::MetricsRegistry::Default().GetGauge(
      "prox_simd_tier",
      "SIMD tier the batch kernels dispatch to: 0 scalar, 1 sse4.2, 2 avx2 "
      "(min of CPU support, PROX_SIMD and the --simd cap).");
  std::lock_guard<std::mutex> lock(mu);
  g->Set(static_cast<double>(tier));
  published.store(tier, std::memory_order_release);
}

void CountBatchEvals(uint64_t n) {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "prox_kernel_batch_evals_total",
      "Valuations priced through the batched VAL-FUNC kernels (one per "
      "valuation per priced candidate).");
  c->Increment(n);
}

uint64_t BatchEvalsForTesting() {
  CountBatchEvals(0);  // ensure the counter exists
  return obs::MetricsRegistry::Default()
      .GetCounter("prox_kernel_batch_evals_total", "")
      ->value();
}

}  // namespace kernels
}  // namespace prox
