#include "net/epoll_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "exec/thread_pool.h"
#include "net/conn.h"
#include "net/net_metrics.h"
#include "obs/log.h"
#include "serve/serve_metrics.h"

namespace prox {
namespace net {

namespace {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// epoll_wait tick; drives the reap scan and the drain-completion check,
/// so it bounds timeout precision, not throughput (I/O events wake the
/// loop immediately via the eventfd / socket readiness).
constexpr int kLoopTickMs = 50;

}  // namespace

/// \brief One event loop: an epoll fd, an eventfd for cross-thread wakeup,
/// and the connections assigned to it. Implements ConnectionHost; every
/// Connection method runs on this shard's thread. Other threads talk to
/// the shard only through Post().
class Shard : public ConnectionHost {
 public:
  Shard(EpollServer* server, int index) : server_(server), index_(index) {}

  ~Shard() override {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
  }

  Status Init() {
    epoll_fd_ = ::epoll_create1(0);
    if (epoll_fd_ < 0) {
      return Status::Internal("epoll_create1(): " +
                              std::string(std::strerror(errno)));
    }
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
    if (wake_fd_ < 0) {
      return Status::Internal("eventfd(): " +
                              std::string(std::strerror(errno)));
    }
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = wake_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event);
    return Status::OK();
  }

  void Run() { thread_ = std::thread([this] { Loop(); }); }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  /// Enqueues a closure for the loop thread and wakes it. Safe from any
  /// thread; used by the acceptor (new connections), the handler pool
  /// (completions) and Stop() (drain).
  void Post(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(tasks_mu_);
      tasks_.push_back(std::move(task));
    }
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }

  /// Takes ownership of an accepted non-blocking fd (loop thread only;
  /// the acceptor posts it here).
  void AddConnection(int fd, uint64_t id) {
    auto conn = std::make_unique<Connection>(fd, id, server_->options_.limits,
                                             this);
    epoll_event event{};
    event.events = EPOLLIN | EPOLLRDHUP;
    event.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) < 0) {
      ::close(fd);
      server_->ReleaseConnection();
      return;
    }
    if (draining_) {
      // Raced with Stop(): the listener closed but this fd was already
      // accepted. Serve nothing; just release it.
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
      ::close(fd);
      server_->ReleaseConnection();
      return;
    }
    conns_.emplace(fd, std::move(conn));
  }

  void BeginDrain() {
    draining_ = true;
    // BeginDrain may close (and erase) the connection, so walk a
    // snapshot of pointers, re-checking liveness through the map.
    std::vector<int> fds;
    fds.reserve(conns_.size());
    for (const auto& [fd, conn] : conns_) fds.push_back(fd);
    for (int fd : fds) {
      auto it = conns_.find(fd);
      if (it != conns_.end()) it->second->BeginDrain();
    }
  }

  // ---- ConnectionHost ----------------------------------------------------

  void UpdateInterest(Connection* conn, bool want_read,
                      bool want_write) override {
    epoll_event event{};
    event.events = (want_read ? (EPOLLIN | EPOLLRDHUP) : 0u) |
                   (want_write ? EPOLLOUT : 0u);
    event.data.fd = conn->fd();
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd(), &event);
  }

  void Dispatch(Connection* conn, serve::HttpRequest request) override {
    const int fd = conn->fd();
    const uint64_t id = conn->id();
    server_->handler_pool_->Submit(
        [this, fd, id, request = std::move(request)]() mutable {
          // Handler-pool workers carry the exec in-parallel-worker flag,
          // which would force the engine's nested ParallelFor inline.
          // This pool is not the exec default pool, so clearing the flag
          // for the handler's duration is deadlock-free and restores the
          // engine's full fan-out.
          bool was_worker = exec::InParallelWorker();
          exec::internal::SetInParallelWorker(false);
          serve::HttpResponse response = server_->handler_(request);
          exec::internal::SetInParallelWorker(was_worker);
          Post([this, fd, id, response = std::move(response)]() mutable {
            CompleteHandler(fd, id, std::move(response));
          });
        });
  }

  void CloseConnection(Connection* conn) override {
    const int fd = conn->fd();
    // A peer abort can close the connection while its handler is still
    // running in the pool. The admission slot stays held until that
    // orphaned completion arrives (CompleteHandler), so the number of
    // concurrently running handlers never exceeds max_inflight.
    const bool release_now = !conn->handler_inflight();
    if (!release_now) orphaned_dispatches_.insert(conn->id());
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    conns_.erase(fd);  // destroys the Connection
    ::close(fd);
    if (release_now) server_->ReleaseConnection();
  }

  bool stopping() const override { return server_->stopping(); }

 private:
  void Loop() {
    epoll_event events[64];
    int64_t next_reap_nanos = NowNanos() + ReapIntervalNanos();
    while (true) {
      int n = ::epoll_wait(epoll_fd_, events, 64, kLoopTickMs);
      if (n < 0 && errno != EINTR) break;
      // Socket events first, posted tasks second: a task can add a fresh
      // connection whose fd number a just-closed connection used; its
      // events cannot be in the batch we are still processing.
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        const uint32_t bits = events[i].events;
        if (fd == wake_fd_) {
          uint64_t drained;
          while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
          }
          continue;
        }
        auto it = conns_.find(fd);
        if (it == conns_.end()) continue;  // closed earlier in this batch
        Connection* conn = it->second.get();
        if (bits & (EPOLLERR | EPOLLHUP)) {
          conn->OnPeerError();
          continue;
        }
        if (bits & (EPOLLIN | EPOLLRDHUP)) {
          conn->OnReadable();
          // OnReadable may have closed the connection; re-check before
          // delivering a coalesced EPOLLOUT.
          it = conns_.find(fd);
          if (it == conns_.end()) continue;
          conn = it->second.get();
        }
        if (bits & EPOLLOUT) conn->OnWritable();
      }
      RunPostedTasks();
      const int64_t now = NowNanos();
      if (now >= next_reap_nanos) {
        ReapStale(now);
        next_reap_nanos = now + ReapIntervalNanos();
      }
      // Orphaned dispatches keep the loop alive too: their completions
      // release admission slots, and the handler pool outlives the shard
      // threads (Stop), so they always arrive.
      if (draining_ && conns_.empty() && orphaned_dispatches_.empty()) break;
    }
  }

  void RunPostedTasks() {
    std::vector<std::function<void()>> tasks;
    {
      std::lock_guard<std::mutex> lock(tasks_mu_);
      tasks.swap(tasks_);
    }
    for (auto& task : tasks) task();
  }

  void CompleteHandler(int fd, uint64_t id, serve::HttpResponse response) {
    auto it = conns_.find(fd);
    // The id check keeps a late response for a dead connection from being
    // written to a new connection that reused its fd number.
    if (it == conns_.end() || it->second->id() != id) {
      // The connection closed mid-dispatch; its admission slot was kept
      // for the running handler (CloseConnection). Release it now.
      if (orphaned_dispatches_.erase(id) > 0) server_->ReleaseConnection();
      return;
    }
    it->second->OnHandlerDone(std::move(response));
  }

  /// Scan period: a fraction of the smallest budget, floored at the loop
  /// tick — timeouts fire within ~25% over their nominal value.
  int64_t ReapIntervalNanos() const {
    int64_t min_ms = std::min(server_->options_.read_timeout_ms,
                              server_->options_.idle_timeout_ms);
    int64_t interval_ms = std::max<int64_t>(kLoopTickMs, min_ms / 4);
    return interval_ms * 1'000'000;
  }

  void ReapStale(int64_t now) {
    static obs::Counter* idle_reaped_metric = serve::ServeIdleReaped();
    static obs::Counter* timeout_metric = NetRequestTimeouts();
    const int64_t read_budget =
        int64_t{server_->options_.read_timeout_ms} * 1'000'000;
    const int64_t idle_budget =
        int64_t{server_->options_.idle_timeout_ms} * 1'000'000;
    std::vector<int> timed_out_mid_request;
    std::vector<int> reap_silent;
    for (const auto& [fd, conn] : conns_) {
      if (conn->handler_inflight()) continue;  // engine time is not stall
      const int64_t idle_for = conn->idle_nanos(now);
      if (conn->mid_request() && idle_for > read_budget) {
        timed_out_mid_request.push_back(fd);
      } else if (conn->idle() && idle_for > idle_budget) {
        reap_silent.push_back(fd);
      } else if (idle_for > read_budget && !conn->idle() &&
                 !conn->mid_request()) {
        // Stuck flush: the peer stopped reading its response.
        reap_silent.push_back(fd);
      }
    }
    for (int fd : timed_out_mid_request) {
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      timeout_metric->Increment();
      it->second->AbortWithStatus(408);
    }
    for (int fd : reap_silent) {
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      idle_reaped_metric->Increment();
      CloseConnection(it->second.get());
    }
  }

  EpollServer* server_;
  [[maybe_unused]] int index_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread thread_;
  /// Loop-thread state: fd → connection. Lookup by fd on every event, so
  /// stale events for closed fds fall through harmlessly.
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  /// Ids of connections closed while their handler dispatch was still
  /// running; each still holds its admission slot, released when the
  /// orphaned completion is delivered. Loop-thread state.
  std::unordered_set<uint64_t> orphaned_dispatches_;
  bool draining_ = false;  // loop-thread flag, set via posted BeginDrain

  std::mutex tasks_mu_;
  std::vector<std::function<void()>> tasks_;
};

EpollServer::EpollServer(Options options, Handler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {}

EpollServer::~EpollServer() { Stop(); }

Status EpollServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already started");
  }
  // htons() would silently wrap 70000 to 4464 and 65536 to 0 (ephemeral).
  if (options_.port < 0 || options_.port > 65535) {
    return Status::InvalidArgument("port out of range [0, 65535]: " +
                                   std::to_string(options_.port));
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal("socket(): " + std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status = Status::Internal("bind(" + options_.host + ":" +
                                     std::to_string(options_.port) +
                                     "): " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);
  if (::listen(fd, options_.backlog) < 0) {
    Status status =
        Status::Internal("listen(): " + std::string(std::strerror(errno)));
    ::close(fd);
    return status;
  }

  int shard_count = options_.shards;
  if (shard_count <= 0) {
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    shard_count = std::clamp(hw / 2, 1, 8);
  }
  shards_.clear();
  shards_.reserve(shard_count);
  for (int i = 0; i < shard_count; ++i) {
    auto shard = std::make_unique<Shard>(this, i);
    Status status = shard->Init();
    if (!status.ok()) {
      shards_.clear();
      ::close(fd);
      return status;
    }
    shards_.push_back(std::move(shard));
  }
  handler_pool_ = std::make_unique<exec::ThreadPool>(
      options_.handler_threads < 1 ? 1 : options_.handler_threads);

  listen_fd_.store(fd, std::memory_order_release);
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (auto& shard : shards_) shard->Run();
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void EpollServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (acceptor_.joinable()) acceptor_.join();
  // Drain: idle connections close now; connections with a request in
  // flight finish it (the response carries `Connection: close`). Each
  // shard's loop exits once its table is empty.
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->Post([s] { s->BeginDrain(); });
  }
  for (auto& shard : shards_) shard->Join();
  // The handler pool dies before the shards: a peer abort (EPOLLERR)
  // can empty a shard's table — letting its loop exit — while a handler
  // task still holds the Shard pointer, so the table being empty does
  // NOT mean no completion is pending. The pool destructor drains and
  // joins those tasks; their Post() onto a joined-but-alive shard just
  // enqueues a task that never runs. Only then is it safe to destroy
  // the shards (mutex, wake fd).
  handler_pool_.reset();
  shards_.clear();
}

void EpollServer::AcceptLoop() {
  static obs::Counter* connections_metric = serve::ServeConnections();
  static obs::Counter* overload_metric = serve::ServeOverload();
  static obs::Gauge* inflight_metric = serve::ServeInflight();
  size_t next_shard = 0;
  while (!stopping_.load(std::memory_order_acquire)) {
    int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) break;
    int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      const int err = errno;
      // Per-connection failures: the aborted/broken connection is gone,
      // the listener is fine.
      if (err == EINTR || err == ECONNABORTED || err == EPROTO) continue;
      if (stopping_.load(std::memory_order_acquire) || err == EBADF ||
          err == EINVAL) {
        break;  // listener closed by Stop()
      }
      // Everything else — fd exhaustion (EMFILE/ENFILE) under a
      // connection wave, ENOBUFS/ENOMEM — is transient: back off briefly
      // and keep accepting instead of silently retiring the acceptor
      // while the server otherwise looks healthy. (The warn log is
      // rate-limited per event by the logger.)
      JsonValue fields = JsonValue::Object();
      fields.Set("errno", JsonValue::Int(err));
      fields.Set("error", JsonValue::Str(std::strerror(err)));
      obs::LogWarn("serve.accept_retry", fields);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    connections_metric->Increment();
    int admitted = inflight_.fetch_add(1, std::memory_order_acq_rel);
    if (admitted >= options_.max_inflight) {
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      overload_metric->Increment();
      if (obs::AccessLogEnabled()) {
        obs::AccessLogRecord line;
        line.status = 503;
        line.shed = true;
        obs::WriteAccessLog(line);
      }
      // Best-effort single send: the fd is non-blocking and the canned
      // document is far below a fresh socket buffer, so this either
      // lands whole or the peer is already gone.
      std::string canned =
          serve::RenderResponse(serve::CannedErrorResponse(503));
      [[maybe_unused]] ssize_t n =
          ::send(fd, canned.data(), canned.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    inflight_metric->Add(1.0);
    uint64_t id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    Shard* shard = shards_[next_shard % shards_.size()].get();
    ++next_shard;
    shard->Post([shard, fd, id] { shard->AddConnection(fd, id); });
  }
}

void EpollServer::ReleaseConnection() {
  static obs::Gauge* inflight_metric = serve::ServeInflight();
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  inflight_metric->Add(-1.0);
}

}  // namespace net
}  // namespace prox
