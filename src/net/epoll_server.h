#ifndef PROX_NET_EPOLL_SERVER_H_
#define PROX_NET_EPOLL_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "serve/http.h"

namespace prox {
namespace exec {
class ThreadPool;
}  // namespace exec

namespace net {

class Shard;

/// \brief The epoll transport: one blocking acceptor, N event-loop shards
/// (level-triggered epoll over non-blocking sockets), and a small handler
/// worker pool so the loops never block on the engine.
///
/// The contract: requests are parsed by the split-read-safe
/// serve::HttpParser, responses rendered by serve::RenderResponse, and
/// transport failures answered with serve::CannedErrorResponse, so the
/// wire bytes of every route are exactly the frozen transcripts in
/// tests/net/golden/. On top of that: bounded-admission 503 shedding,
/// idle / mid-request timeout budgets, and a graceful drain (Stop closes
/// the listener, in-flight requests finish with `Connection: close`, then
/// the loops exit). A parked keep-alive connection is one fd and a small
/// state machine, not a blocked thread, so tens of thousands of idle
/// connections fit in a few threads.
///
/// Threading: each connection lives on exactly one shard; all of its
/// state-machine transitions run on that shard's loop thread. Handlers
/// run on the worker pool and post their response back to the owning
/// loop (fd + generation id, so a response for an already-closed
/// connection is dropped, never delivered to a reused fd).
class EpollServer {
 public:
  using Handler = std::function<serve::HttpResponse(const serve::HttpRequest&)>;

  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;  ///< 0 = ephemeral; see port() after Start()
    /// Event-loop shards. 0 = hardware_concurrency()/2, clamped to [1, 8].
    int shards = 0;
    /// Worker threads running the request handler (engine calls).
    int handler_threads = 4;
    /// Connections admitted at once; the acceptor sheds the rest with a
    /// canned 503 (`prox_serve_overload_total`). Raise well past the
    /// expected keep-alive population — parked connections are cheap.
    int max_inflight = 4096;
    int backlog = 1024;
    /// Mid-request budget (partial request, no byte for this long → 408).
    int read_timeout_ms = 5000;
    /// Keep-alive budget (idle past this → reaped silently, counted in
    /// `prox_serve_idle_reaped_total`).
    int idle_timeout_ms = 15000;
    serve::HttpParser::Limits limits;
  };

  EpollServer(Options options, Handler handler);
  ~EpollServer();  ///< calls Stop()

  EpollServer(const EpollServer&) = delete;
  EpollServer& operator=(const EpollServer&) = delete;

  /// Binds, listens, spawns the shards, the handler pool and the
  /// acceptor. Fails with InvalidArgument for a port outside [0, 65535]
  /// or a bad host, and with Internal when the socket can't be bound.
  Status Start();

  /// Graceful drain (see class comment). Idempotent; safe to call from a
  /// signal-watcher thread.
  void Stop();

  /// The bound port (resolves port 0 requests). Valid after Start().
  int port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  bool stopping() const { return stopping_.load(std::memory_order_acquire); }

 private:
  friend class Shard;

  void AcceptLoop();
  /// Called by a shard when it closes a connection — releases the
  /// admission slot taken in AcceptLoop.
  void ReleaseConnection();

  Options options_;
  Handler handler_;

  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::atomic<int> inflight_{0};
  std::atomic<uint64_t> next_conn_id_{1};

  std::unique_ptr<exec::ThreadPool> handler_pool_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::thread acceptor_;
};

}  // namespace net
}  // namespace prox

#endif  // PROX_NET_EPOLL_SERVER_H_
