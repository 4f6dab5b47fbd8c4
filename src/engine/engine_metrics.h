#ifndef PROX_ENGINE_ENGINE_METRICS_H_
#define PROX_ENGINE_ENGINE_METRICS_H_

#include "obs/metrics.h"

namespace prox {
namespace engine {

/// \file
/// Metric families owned by the engine layer (docs/OBSERVABILITY.md).
/// The names keep their historical `prox_serve_` prefix: dashboards and
/// the persisted-snapshot warm-hit accounting predate the engine/transport
/// split, and renaming a metric is a breaking change for every scrape
/// config. Same discipline as serve_metrics.h: labels are pre-rendered
/// strings, hot call sites cache the pointer in a function-local static.

/// `prox_serve_fingerprint_fallback_total` — DatasetFingerprint calls that
/// had no snapshot checksum hint and re-hashed the full provenance text.
inline obs::Counter* FingerprintFallbacks() {
  return obs::MetricsRegistry::Default().GetCounter(
      "prox_serve_fingerprint_fallback_total",
      "Dataset fingerprints computed by re-serializing the provenance "
      "because no snapshot checksum was available.");
}

/// `prox_serve_cache_hit_total`.
inline obs::Counter* CacheHits() {
  return obs::MetricsRegistry::Default().GetCounter(
      "prox_serve_cache_hit_total", "SummaryCache lookups served from cache.");
}

/// `prox_serve_cache_miss_total`.
inline obs::Counter* CacheMisses() {
  return obs::MetricsRegistry::Default().GetCounter(
      "prox_serve_cache_miss_total", "SummaryCache lookups that missed.");
}

/// `prox_serve_cache_evict_total`.
inline obs::Counter* CacheEvictions() {
  return obs::MetricsRegistry::Default().GetCounter(
      "prox_serve_cache_evict_total",
      "SummaryCache entries evicted to stay under the byte budget.");
}

/// `prox_serve_cache_bytes` — bytes currently cached across all shards.
inline obs::Gauge* CacheBytes() {
  return obs::MetricsRegistry::Default().GetGauge(
      "prox_serve_cache_bytes", "Bytes held by the SummaryCache.");
}

/// `prox_serve_engine_lock_wait_nanos` — time spent waiting to take the
/// engine mutex: cold summarize misses, select, ingest, groups, evaluate
/// and the typed facade. Cache hits and fingerprint() (/healthz) read the
/// published ServingKey instead and never record here.
inline obs::Histogram* EngineLockWait() {
  return obs::MetricsRegistry::Default().GetHistogram(
      "prox_serve_engine_lock_wait_nanos",
      "Wait to acquire the engine mutex, nanoseconds.",
      obs::LatencyBucketsNanos());
}

}  // namespace engine
}  // namespace prox

#endif  // PROX_ENGINE_ENGINE_METRICS_H_
