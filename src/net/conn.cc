#include "net/conn.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <utility>

#include "net/net_metrics.h"

namespace prox {
namespace net {

namespace {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Connection::Connection(int fd, uint64_t id, serve::HttpParser::Limits limits,
                       ConnectionHost* host)
    : fd_(fd), id_(id), host_(host), parser_(limits) {
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  last_activity_nanos_ = NowNanos();
}

Connection::~Connection() = default;

void Connection::OnReadable() {
  char buffer[16 * 1024];
  bool fed = false;
  while (true) {
    ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (n > 0) {
      parser_.Feed(std::string_view(buffer, static_cast<size_t>(n)));
      fed = true;
      continue;
    }
    if (n == 0) {
      peer_half_closed_ = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    host_->CloseConnection(this);
    return;
  }
  if (fed) last_activity_nanos_ = NowNanos();
  if (peer_half_closed_ && !fed && idle()) {
    // Clean keep-alive close by the client between requests.
    host_->CloseConnection(this);
    return;
  }
  Pump();
}

void Connection::Pump() {
  // One request handled / one response buffered at a time — further
  // pipelined requests stay parked in the parser until the flush ends.
  if (handler_inflight_ || !out_.empty()) return;

  serve::HttpRequest request;
  serve::ParseResult result = parser_.Next(&request);
  if (result == serve::ParseResult::kRequest) {
    static obs::Counter* dispatch_metric = NetDispatch();
    dispatch_metric->Increment();
    request_wants_close_ = request.WantsClose();
    handler_inflight_ = true;
    // Pause reads while the handler runs: the socket buffer is the
    // backpressure on pipelining clients.
    UpdateInterestIfChanged(false, false);
    host_->Dispatch(this, std::move(request));
    return;
  }
  if (result == serve::ParseResult::kError) {
    QueueCanned(parser_.error_status());
    close_after_flush_ = true;
    Flush();
    return;
  }
  // kNeedMore: nothing complete buffered. A half-closed peer can never
  // finish the request; a draining server stops waiting for new ones.
  if (peer_half_closed_ || draining_ || host_->stopping()) {
    host_->CloseConnection(this);
    return;
  }
  UpdateInterestIfChanged(true, false);
}

void Connection::OnWritable() { Flush(); }

void Connection::OnPeerError() { host_->CloseConnection(this); }

void Connection::OnHandlerDone(serve::HttpResponse response) {
  handler_inflight_ = false;
  // Deciding the close bit here on the loop thread keeps the rendered
  // Connection header consistent with the drain state at write time.
  bool close = request_wants_close_ || response.close_connection ||
               draining_ || host_->stopping();
  response.close_connection = close;
  close_after_flush_ = close;
  out_ = serve::RenderResponse(response);
  out_offset_ = 0;
  Flush();
}

void Connection::BeginDrain() {
  draining_ = true;
  if (handler_inflight_ || !out_.empty()) return;  // closes after the flush
  if (parser_.buffered_bytes() > 0) {
    // A fully received pipelined request still completes (its response
    // will carry `Connection: close`); a partial one closes in Pump.
    Pump();
    return;
  }
  host_->CloseConnection(this);
}

void Connection::AbortWithStatus(int status) {
  QueueCanned(status);
  close_after_flush_ = true;
  Flush();
}

void Connection::Flush() {
  while (out_offset_ < out_.size()) {
    ssize_t n = ::send(fd_, out_.data() + out_offset_,
                       out_.size() - out_offset_, MSG_NOSIGNAL);
    if (n >= 0) {
      out_offset_ += static_cast<size_t>(n);
      last_activity_nanos_ = NowNanos();
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      static obs::Counter* stall_metric = NetWriteStalls();
      stall_metric->Increment();
      UpdateInterestIfChanged(false, true);
      return;
    }
    host_->CloseConnection(this);
    return;
  }
  out_.clear();
  out_offset_ = 0;
  if (close_after_flush_) {
    host_->CloseConnection(this);
    return;
  }
  Pump();  // next pipelined request, or re-arm EPOLLIN
}

void Connection::QueueCanned(int status) {
  out_ = serve::RenderResponse(serve::CannedErrorResponse(status));
  out_offset_ = 0;
}

void Connection::UpdateInterestIfChanged(bool want_read, bool want_write) {
  if (want_read == want_read_ && want_write == want_write_) return;
  want_read_ = want_read;
  want_write_ = want_write;
  host_->UpdateInterest(this, want_read, want_write);
}

}  // namespace net
}  // namespace prox
