#ifndef PROX_NET_CONN_H_
#define PROX_NET_CONN_H_

#include <cstdint>
#include <string>

#include "serve/http.h"

namespace prox {
namespace net {

class Connection;

/// \brief What a Connection needs from its owning event-loop shard. All
/// calls happen on the shard's loop thread; the shard implements them with
/// epoll_ctl, the handler-pool dispatch, and its connection table.
class ConnectionHost {
 public:
  virtual ~ConnectionHost() = default;

  /// Re-arms the epoll interest set for the connection's fd.
  virtual void UpdateInterest(Connection* conn, bool want_read,
                              bool want_write) = 0;

  /// Runs the request handler off-loop (handler worker pool) and posts
  /// the response back to the loop as conn->OnHandlerDone(). Exactly one
  /// dispatch may be in flight per connection.
  virtual void Dispatch(Connection* conn, serve::HttpRequest request) = 0;

  /// Removes the connection from epoll and the table and closes the fd.
  /// The Connection is destroyed before this returns — no member access
  /// afterwards.
  virtual void CloseConnection(Connection* conn) = 0;

  /// True once the server began its graceful drain.
  virtual bool stopping() const = 0;
};

/// \brief One keep-alive HTTP/1.1 connection on an epoll shard, as a
/// state machine over the split-read-safe serve::HttpParser:
///
///   reading --(complete request)--> handling --(response)--> writing
///      ^                                                        |
///      +----------------(flush done, keep-alive)----------------+
///
/// Reads are paused (EPOLLIN dropped) while a handler is in flight or a
/// response is still flushing — per-connection backpressure by
/// construction: at most one request is being handled and at most one
/// response plus a canned error is ever buffered, no matter how many
/// requests the peer pipelines into its socket. Pipelined requests are
/// answered strictly in order.
///
/// All methods run on the loop thread. The shard routes epoll events and
/// posted handler completions here; timeouts are driven by the shard's
/// periodic reap scan via idle_ns().
class Connection {
 public:
  Connection(int fd, uint64_t id, serve::HttpParser::Limits limits,
             ConnectionHost* host);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }
  /// Monotonic per-server id; handler completions carry (fd, id) so a
  /// response for a dead connection (fd since reused) is dropped instead
  /// of delivered to the wrong peer.
  uint64_t id() const { return id_; }

  /// EPOLLIN (or EPOLLRDHUP): read until EAGAIN, feed the parser, pump.
  void OnReadable();
  /// EPOLLOUT: continue flushing the buffered response.
  void OnWritable();
  /// EPOLLERR / EPOLLHUP: the peer is gone.
  void OnPeerError();
  /// Handler completion, posted back from the worker pool. Decides the
  /// close bit (client asked, handler asked, or server draining), renders
  /// the response and starts the flush — rendering on the loop thread
  /// keeps the close decision and the rendered Connection header in sync
  /// with the drain state.
  void OnHandlerDone(serve::HttpResponse response);

  /// Drain entry: idle connections close now; in-flight ones finish their
  /// current request (the response carries `Connection: close`).
  void BeginDrain();

  bool handler_inflight() const { return handler_inflight_; }
  /// True when between requests: nothing in flight, nothing buffered.
  bool idle() const {
    return !handler_inflight_ && out_.empty() && parser_.buffered_bytes() == 0;
  }
  /// True when a request started arriving but is not complete yet.
  bool mid_request() const {
    return !handler_inflight_ && out_.empty() && parser_.buffered_bytes() > 0;
  }
  /// Nanoseconds since the last byte of progress (read or write).
  int64_t idle_nanos(int64_t now_nanos) const {
    return now_nanos - last_activity_nanos_;
  }

  /// Reap actions (shard scan): close with a canned 408 (mid-request
  /// stall) or silently (idle past the keep-alive budget / stuck write).
  void AbortWithStatus(int status);

 private:
  /// Advances the state machine: parse the next pipelined request when
  /// nothing is in flight, dispatch it, or re-arm EPOLLIN. May destroy
  /// the connection (all paths return immediately after CloseConnection).
  void Pump();
  /// Sends as much of out_ as the socket accepts; parks on EPOLLOUT at
  /// EAGAIN. May destroy the connection (send error, close-after-flush),
  /// so callers return immediately after.
  void Flush();
  void QueueCanned(int status);
  /// epoll_ctl round-trips only when the interest set actually changes.
  void UpdateInterestIfChanged(bool want_read, bool want_write);

  int fd_;
  uint64_t id_;
  ConnectionHost* host_;
  serve::HttpParser parser_;
  std::string out_;      ///< rendered bytes not yet accepted by the socket
  size_t out_offset_ = 0;
  bool handler_inflight_ = false;
  bool request_wants_close_ = false;  ///< the in-flight request said close
  bool close_after_flush_ = false;
  bool peer_half_closed_ = false;  ///< recv returned 0
  bool draining_ = false;
  bool want_read_ = true;  ///< current epoll interest, to skip no-op ctls
  bool want_write_ = false;
  int64_t last_activity_nanos_;
};

}  // namespace net
}  // namespace prox

#endif  // PROX_NET_CONN_H_
