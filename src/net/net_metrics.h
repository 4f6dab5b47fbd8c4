#ifndef PROX_NET_NET_METRICS_H_
#define PROX_NET_NET_METRICS_H_

#include <string>

#include "obs/metrics.h"

namespace prox {
namespace net {

/// \file
/// The `prox_net_*` metric families (docs/OBSERVABILITY.md). The epoll
/// transport emits the connection-level `prox_serve_*` families
/// (connections/overload/inflight/idle-reaped, serve/serve_metrics.h)
/// and adds the event-loop- and balancer-specific series here.

/// `prox_net_dispatch_total` — requests handed from an event-loop shard
/// to the handler worker pool.
inline obs::Counter* NetDispatch() {
  return obs::MetricsRegistry::Default().GetCounter(
      "prox_net_dispatch_total",
      "Requests dispatched from an event-loop shard to the handler pool.");
}

/// `prox_net_write_stalls_total` — sends that hit EAGAIN and parked the
/// connection on EPOLLOUT (write backpressure engaged).
inline obs::Counter* NetWriteStalls() {
  return obs::MetricsRegistry::Default().GetCounter(
      "prox_net_write_stalls_total",
      "Response writes that filled the socket buffer and waited on "
      "EPOLLOUT.");
}

/// `prox_net_request_timeouts_total` — connections closed with a canned
/// 408 because a partially received request stalled past the read budget.
inline obs::Counter* NetRequestTimeouts() {
  return obs::MetricsRegistry::Default().GetCounter(
      "prox_net_request_timeouts_total",
      "Connections 408-closed: a partial request stalled past the read "
      "timeout.");
}

/// `prox_net_balancer_forward_total{replica="host:port"}`.
inline obs::Counter* BalancerForward(const std::string& replica) {
  return obs::MetricsRegistry::Default().GetCounter(
      "prox_net_balancer_forward_total",
      "Requests forwarded to a replica, by replica endpoint.",
      "replica=\"" + replica + "\"");
}

/// `prox_net_balancer_retry_total` — idempotent GETs replayed on the next
/// ring replica after a transport failure.
inline obs::Counter* BalancerRetry() {
  return obs::MetricsRegistry::Default().GetCounter(
      "prox_net_balancer_retry_total",
      "GETs retried on the next consistent-hash replica after a forward "
      "failure.");
}

/// `prox_net_balancer_unhealthy_total` — healthy→unhealthy transitions
/// (active health probe or passive forward failure).
inline obs::Counter* BalancerUnhealthy() {
  return obs::MetricsRegistry::Default().GetCounter(
      "prox_net_balancer_unhealthy_total",
      "Replica transitions to unhealthy (probe failure or passive "
      "detection).");
}

/// `prox_net_balancer_no_backend_total` — requests answered 503 because
/// no healthy replica remained.
inline obs::Counter* BalancerNoBackend() {
  return obs::MetricsRegistry::Default().GetCounter(
      "prox_net_balancer_no_backend_total",
      "Requests shed with 503 because every replica was unhealthy.");
}

}  // namespace net
}  // namespace prox

#endif  // PROX_NET_NET_METRICS_H_
