#ifndef PROX_NET_BALANCER_H_
#define PROX_NET_BALANCER_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "net/ring.h"
#include "serve/http.h"

namespace prox {
namespace net {

/// \brief A consistent-hash HTTP balancer over `prox_server` replicas
/// booted from one shared PROXSNAP snapshot. Plugs into the transport as
/// its Handler (examples/prox_router.cpp puts it behind an
/// EpollServer).
///
/// Routing: the key is the replicas' dataset fingerprint (fetched once
/// from a replica's /healthz) plus the request target and body, so the
/// same summarize request always lands on the same replica and its
/// SummaryCache stays hot — fanning N replicas multiplies cache capacity
/// instead of splitting the hit rate. HashRing's minimal-remapping
/// property keeps ~(R-1)/R of that affinity through a replica failure.
///
/// Failure handling is layered:
///  - passive: a transport-level forward failure (connect/send/read)
///    marks the replica unhealthy immediately;
///  - active: an optional probe thread GETs /healthz every
///    `health_interval_ms` and flips replicas back when they recover;
///  - retry: idempotent GETs are replayed once on the key's next ring
///    successor (`prox_net_balancer_retry_total`); non-idempotent
///    methods get a 502 instead of a blind replay;
///  - all replicas down → canned 503
///    (`prox_net_balancer_no_backend_total`).
///
/// An HTTP 5xx from a replica is an answer, not a transport failure: it
/// is passed through untouched.
///
/// /healthz and /metrics are answered locally (router health + the
/// router's own `prox_net_balancer_*` series); everything else is
/// forwarded with an added `X-Prox-Replica: host:port` response header
/// naming the replica that answered.
class Balancer {
 public:
  struct Options {
    /// Replica endpoints as "host:port".
    std::vector<std::string> replicas;
    int vnodes = 64;
    /// Active /healthz probe period; 0 disables the probe thread
    /// (passive detection still applies, but a replica marked down can
    /// only recover via a probe, so 0 is for tests and fail-stop fleets).
    int health_interval_ms = 1000;
    int connect_timeout_ms = 2000;
    /// Per-forward budget: connect + send + read of the replica response.
    int request_timeout_ms = 10000;
    bool retry_idempotent = true;
  };

  explicit Balancer(Options options);
  ~Balancer();  ///< calls Stop()

  Balancer(const Balancer&) = delete;
  Balancer& operator=(const Balancer&) = delete;

  /// Validates the replica list and starts the probe thread (when
  /// enabled). InvalidArgument on an empty or malformed replica list.
  Status Start();

  /// Stops the probe thread. Idempotent.
  void Stop();

  /// The transport Handler: route locally or forward (class comment).
  serve::HttpResponse Handle(const serve::HttpRequest& request);

  /// Endpoints currently believed healthy (tests, /healthz).
  int healthy_count() const;

 private:
  struct Replica {
    std::string endpoint;  ///< "host:port"
    std::string host;
    int port = 0;
    std::atomic<bool> healthy{true};
  };

  serve::HttpResponse HandleHealthz();
  serve::HttpResponse HandleMetrics();
  /// One forward attempt. Returns false on transport failure (replica is
  /// marked unhealthy); a replica HTTP response of any status is success.
  bool ForwardTo(Replica* replica, const serve::HttpRequest& request,
                 serve::HttpResponse* out);
  void MarkUnhealthy(Replica* replica);
  /// The shared dataset fingerprint, fetched lazily from a healthy
  /// replica's /healthz ("" until one answers).
  std::string DatasetFingerprint();
  void ProbeLoop();

  Options options_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::unique_ptr<HashRing> ring_;

  std::mutex fingerprint_mu_;
  std::string fingerprint_;

  std::atomic<bool> probing_{false};
  std::mutex probe_mu_;
  std::condition_variable probe_cv_;
  std::thread probe_thread_;
};

}  // namespace net
}  // namespace prox

#endif  // PROX_NET_BALANCER_H_
