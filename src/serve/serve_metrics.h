#ifndef PROX_SERVE_SERVE_METRICS_H_
#define PROX_SERVE_SERVE_METRICS_H_

#include <string>

#include "obs/metrics.h"

namespace prox {
namespace serve {

/// \file
/// The `prox_serve_*` metric families (docs/OBSERVABILITY.md). Follows
/// service_metrics.h: labels are pre-rendered strings, hot call sites
/// cache the pointer in a function-local static.

/// `prox_serve_requests_total{route="..."}`.
inline obs::Counter* ServeRequests(const std::string& route) {
  return obs::MetricsRegistry::Default().GetCounter(
      "prox_serve_requests_total", "HTTP requests routed, by route.",
      "route=\"" + route + "\"");
}

/// `prox_serve_responses_total{code="..."}`.
inline obs::Counter* ServeResponses(int status) {
  return obs::MetricsRegistry::Default().GetCounter(
      "prox_serve_responses_total", "HTTP responses written, by status code.",
      "code=\"" + std::to_string(status) + "\"");
}

/// `prox_serve_overload_total` — connections shed with 503.
inline obs::Counter* ServeOverload() {
  return obs::MetricsRegistry::Default().GetCounter(
      "prox_serve_overload_total",
      "Connections shed with 503 because max-inflight was reached.");
}

/// `prox_serve_connections_total` — connections accepted (shed ones too).
inline obs::Counter* ServeConnections() {
  return obs::MetricsRegistry::Default().GetCounter(
      "prox_serve_connections_total", "TCP connections accepted.");
}

/// `prox_serve_inflight` — connections admitted and not yet closed.
inline obs::Gauge* ServeInflight() {
  return obs::MetricsRegistry::Default().GetGauge(
      "prox_serve_inflight",
      "Connections currently queued or being served by a worker.");
}

/// `prox_serve_idle_reaped_total` — keep-alive connections closed because
/// they sat idle (no request in flight, empty parse buffer) past the idle
/// timeout. Emitted by the epoll transport's reap sweep (net/).
inline obs::Counter* ServeIdleReaped() {
  return obs::MetricsRegistry::Default().GetCounter(
      "prox_serve_idle_reaped_total",
      "Idle keep-alive connections reaped by the idle timeout.");
}

/// `prox_serve_request_duration_nanos` — handler wall time.
inline obs::Histogram* ServeDuration() {
  return obs::MetricsRegistry::Default().GetHistogram(
      "prox_serve_request_duration_nanos",
      "Wall time from parsed request to rendered response, nanoseconds.",
      obs::LatencyBucketsNanos());
}

// The fingerprint-fallback and SummaryCache families moved with their
// owners to src/engine/engine_metrics.h (same `prox_serve_` names — see
// the note there about scrape-config compatibility).

}  // namespace serve
}  // namespace prox

#endif  // PROX_SERVE_SERVE_METRICS_H_
