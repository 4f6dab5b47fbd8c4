/// \file bench_serve_throughput.cc
/// \brief Loadgen for prox::serve: starts the epoll transport
/// (net::EpollServer) in-process on an ephemeral loopback port, drives N concurrent clients through two waves
/// of identical `POST /v1/summarize` requests, and reports per-wave
/// p50/p99 latency plus the SummaryCache hit rate.
///
/// Wave 1 ("cold") pays one Algorithm 1 run — the router single-flights
/// concurrent identical requests, so every other request in the wave is
/// already a cache hit. Wave 2 ("cached") is hits only and must be faster.
/// All bodies across both waves are checked byte-identical (the cache
/// contract; exits 1 on violation).
///
/// Flags: --clients=N (8) --requests=N per client per wave (16)
///        --threads=N server handler threads (4) --cache-mb=N (64)
///        --max-steps=N summarize knob (8) --slo-ms=N p99 gate (250)
///
/// `--json` is the committed-baseline mode (BENCH_serve.json): after the
/// waves it reads the server-side p50/p99 from the per-endpoint
/// `prox_serve_route_duration_nanos` rolling-window gauges, self-checks
/// them against the client-side measurements (±15%, with an absolute
/// floor for the sub-millisecond cached requests where loopback connect
/// overhead dominates), verifies the histogram sample count equals the
/// requests served, gates p99 on the `--slo-ms` objective, and prints the
/// result as JSON on stdout (human-readable lines move to stderr). Any
/// violated contract exits 1.
///
/// `--json-net` is the epoll-transport baseline (BENCH_net.json,
/// docs/NET.md), two phases:
///  - wave: an epoll prox::net server faces `--wave-connections` (10000)
///    concurrent keep-alive connections. The loadgen runs in a forked
///    child (this box caps RLIMIT_NOFILE at 20000 — server + client fds
///    cannot share one process) re-exec'd as `--wave-client`: it ramps
///    non-blocking connects in batches, confirms each with
///    EPOLLOUT + SO_ERROR, then sweeps two rounds of /healthz over every
///    connection with a bounded in-flight window. Gates: every connect
///    established, zero request errors, client p99 <= --slo-ms.
///  - fanout: 12 summarize bodies are warmed, persisted as a PROXSNAP
///    snapshot, and three snapshot-booted replicas behind a
///    consistent-hash Balancer serve the cached set against one replica
///    serving it alone. Gates: zero failures, every response a cache hit
///    (the affinity contract), and >= 2x throughput — waived, and
///    recorded as waived, when the host has fewer than 4 hardware
///    threads (replica fan-out cannot beat a single replica for CPU
///    when there is only one core to share).

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "datasets/movielens.h"
#include "obs/metrics.h"
#include "engine/engine.h"
#include "net/balancer.h"
#include "net/epoll_server.h"
#include "serve/client.h"
#include "serve/router.h"

using namespace prox;

namespace {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<int64_t> nanos, double p) {
  if (nanos.empty()) return 0.0;
  std::sort(nanos.begin(), nanos.end());
  size_t index = static_cast<size_t>(p * (nanos.size() - 1));
  return static_cast<double>(nanos[index]);
}

struct WaveResult {
  std::vector<int64_t> latencies_nanos;
  std::set<std::string> distinct_bodies;
  int failures = 0;
  int64_t wall_nanos = 0;
};

WaveResult RunWave(int port, int clients, int requests,
                   const std::string& body) {
  WaveResult result;
  std::mutex mu;
  std::vector<std::thread> threads;
  int64_t wave_start = NowNanos();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      (void)c;
      std::vector<int64_t> local_latencies;
      std::set<std::string> local_bodies;
      int local_failures = 0;
      for (int r = 0; r < requests; ++r) {
        int64_t start = NowNanos();
        Result<serve::ClientResponse> response = serve::Fetch(
            "127.0.0.1", port, "POST", "/v1/summarize", body,
            /*timeout_ms=*/60000);
        int64_t elapsed = NowNanos() - start;
        if (!response.ok() || response.value().status != 200) {
          ++local_failures;
          continue;
        }
        local_latencies.push_back(elapsed);
        local_bodies.insert(response.value().body);
      }
      std::lock_guard<std::mutex> lock(mu);
      result.latencies_nanos.insert(result.latencies_nanos.end(),
                                    local_latencies.begin(),
                                    local_latencies.end());
      result.distinct_bodies.insert(local_bodies.begin(), local_bodies.end());
      result.failures += local_failures;
    });
  }
  for (std::thread& thread : threads) thread.join();
  result.wall_nanos = NowNanos() - wave_start;
  return result;
}

void PrintWave(std::FILE* out, const char* label, const WaveResult& wave) {
  std::fprintf(out,
               "%-8s requests=%zu failures=%d p50=%.0fus p99=%.0fus "
               "wall=%.1fms throughput=%.0f req/s\n",
               label, wave.latencies_nanos.size(), wave.failures,
               Percentile(wave.latencies_nanos, 0.50) / 1e3,
               Percentile(wave.latencies_nanos, 0.99) / 1e3,
               static_cast<double>(wave.wall_nanos) / 1e6,
               wave.latencies_nanos.empty()
                   ? 0.0
                   : static_cast<double>(wave.latencies_nanos.size()) /
                         (static_cast<double>(wave.wall_nanos) / 1e9));
}

/// Server-side view of the /v1/summarize route, read from the metrics
/// registry after RouteStats::ExportGauges().
struct ServerSideStats {
  uint64_t histogram_count = 0;
  double p50_nanos = 0.0;
  double p99_nanos = 0.0;
  double burn_rate = 0.0;
  bool found = false;
};

ServerSideStats ReadServerSideStats() {
  static const char kLabels[] = "route=\"/v1/summarize\"";
  ServerSideStats stats;
  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Default().Snapshot();
  const obs::HistogramSample* histogram =
      snapshot.FindHistogram("prox_serve_route_duration_nanos", kLabels);
  const obs::GaugeSample* p50 =
      snapshot.FindGauge("prox_serve_route_latency_p50_nanos", kLabels);
  const obs::GaugeSample* p99 =
      snapshot.FindGauge("prox_serve_route_latency_p99_nanos", kLabels);
  const obs::GaugeSample* burn =
      snapshot.FindGauge("prox_serve_route_slo_burn_rate", kLabels);
  if (histogram == nullptr || p50 == nullptr || p99 == nullptr ||
      burn == nullptr) {
    return stats;
  }
  stats.histogram_count = histogram->count;
  stats.p50_nanos = p50->value;
  stats.p99_nanos = p99->value;
  stats.burn_rate = burn->value;
  stats.found = true;
  return stats;
}

/// Server-side and client-side measure the same requests from opposite
/// ends of the loopback socket: they must agree within 15%, plus an
/// absolute floor for sub-millisecond samples (cache hits handle in a few
/// microseconds server-side while the client pays ~0.5 ms of connect +
/// write + read per request; the floor absorbs that overhead with
/// headroom for loaded machines).
bool WithinTolerance(double server_nanos, double client_nanos) {
  const double tolerance =
      std::max(0.15 * client_nanos, 2.0 * 1000.0 * 1000.0);  // 2 ms floor
  return std::abs(server_nanos - client_nanos) <= tolerance;
}

// ---------------------------------------------------------------------------
// Keep-alive connection wave + snapshot fan-out (--json-net, docs/NET.md)
// ---------------------------------------------------------------------------

bool SendAll(int fd, const std::string& data) {
  size_t offset = 0;
  while (offset < data.size()) {
    ssize_t n = send(fd, data.data() + offset, data.size() - offset,
                     MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    offset += static_cast<size_t>(n);
  }
  return true;
}

/// Reads exactly one HTTP response (headers + Content-Length body) off a
/// keep-alive connection. One request is in flight per connection at a
/// time, so nothing past the body can arrive early.
bool ReadOneResponse(int fd) {
  std::string buf;
  size_t header_end = std::string::npos;
  long content_length = -1;
  char chunk[8192];
  while (true) {
    ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf.append(chunk, static_cast<size_t>(n));
    if (header_end == std::string::npos) {
      size_t pos = buf.find("\r\n\r\n");
      if (pos == std::string::npos) continue;
      header_end = pos + 4;
      std::string headers = buf.substr(0, header_end);
      for (char& c : headers) c = static_cast<char>(std::tolower(c));
      size_t marker = headers.find("content-length:");
      if (marker == std::string::npos) return false;
      content_length = std::strtol(headers.c_str() + marker + 15, nullptr, 10);
    }
    if (content_length >= 0 &&
        buf.size() >= header_end + static_cast<size_t>(content_length)) {
      return true;
    }
  }
}

/// The forked loadgen: ramps `connections` non-blocking connects in
/// batches (each confirmed via EPOLLOUT + SO_ERROR before the next batch
/// goes out), then sweeps `rounds` rounds of GET /healthz across every
/// connection with at most `window` requests in flight. Emits a JSON
/// report on stdout for the parent to parse; exit 0 only if every
/// connection established and every request round-tripped.
int RunWaveClient(int port, long connections, long batch, long window,
                  long rounds) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);

  int epoll_fd = epoll_create1(0);
  if (epoll_fd < 0) {
    std::perror("epoll_create1");
    return 1;
  }
  std::vector<int> fds;
  fds.reserve(static_cast<size_t>(connections));
  long errors = 0;
  const int64_t ramp_start = NowNanos();
  for (long done = 0; done < connections && errors == 0; done += batch) {
    const long this_batch = std::min(batch, connections - done);
    std::vector<int> pending;
    pending.reserve(static_cast<size_t>(this_batch));
    for (long i = 0; i < this_batch; ++i) {
      int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
      if (fd < 0) {
        ++errors;
        continue;
      }
      int rc = connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr));
      if (rc == 0) {
        fds.push_back(fd);
        continue;
      }
      if (errno != EINPROGRESS) {
        close(fd);
        ++errors;
        continue;
      }
      epoll_event event{};
      event.events = EPOLLOUT;
      event.data.fd = fd;
      if (epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &event) != 0) {
        close(fd);
        ++errors;
        continue;
      }
      pending.push_back(fd);
    }
    size_t resolved = 0;
    while (resolved < pending.size()) {
      epoll_event events[256];
      int n = epoll_wait(epoll_fd, events, 256, 10000);
      if (n <= 0) break;  // stalled ramp; the shortfall counts as errors
      for (int i = 0; i < n; ++i) {
        int fd = events[i].data.fd;
        epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
        ++resolved;
        int sock_error = 0;
        socklen_t len = sizeof(sock_error);
        if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &sock_error, &len) != 0 ||
            sock_error != 0) {
          close(fd);
          ++errors;
        } else {
          fds.push_back(fd);
        }
      }
    }
    errors += static_cast<long>(pending.size() - resolved);
  }
  const double ramp_ms = static_cast<double>(NowNanos() - ramp_start) / 1e6;

  // The non-blocking phase is over: the sweep below keeps exactly one
  // request in flight per connection, so blocking send/recv is exact.
  for (int fd : fds) {
    int flags = fcntl(fd, F_GETFL, 0);
    if (flags >= 0) fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  }

  const std::string request =
      "GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n";
  std::vector<int64_t> latencies;
  latencies.reserve(fds.size() * static_cast<size_t>(rounds));
  const int64_t sweep_start = NowNanos();
  for (long round = 0; round < rounds; ++round) {
    for (size_t begin = 0; begin < fds.size();
         begin += static_cast<size_t>(window)) {
      const size_t end =
          std::min(begin + static_cast<size_t>(window), fds.size());
      std::vector<int64_t> starts(end - begin);
      for (size_t i = begin; i < end; ++i) {
        starts[i - begin] = NowNanos();
        if (!SendAll(fds[i], request)) ++errors;
      }
      for (size_t i = begin; i < end; ++i) {
        if (!ReadOneResponse(fds[i])) {
          ++errors;
          continue;
        }
        latencies.push_back(NowNanos() - starts[i - begin]);
      }
    }
  }
  const double sweep_ms = static_cast<double>(NowNanos() - sweep_start) / 1e6;

  std::printf(
      "{\"connections\": %ld, \"established\": %zu, \"errors\": %ld, "
      "\"rounds\": %ld, \"requests\": %zu, \"p50_ns\": %.0f, "
      "\"p99_ns\": %.0f, \"ramp_ms\": %.1f, \"sweep_ms\": %.1f}\n",
      connections, fds.size(), errors, rounds, latencies.size(),
      Percentile(latencies, 0.50), Percentile(latencies, 0.99), ramp_ms,
      sweep_ms);
  for (int fd : fds) close(fd);
  close(epoll_fd);
  return (errors == 0 && static_cast<long>(fds.size()) == connections) ? 0
                                                                       : 1;
}

struct NetWaveResult {
  long connections = 0;
  long established = 0;
  long errors = -1;  ///< -1: the child never reported
  long requests = 0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double ramp_ms = 0.0;
  double sweep_ms = 0.0;
  bool pass = false;
};

/// Wave phase of --json-net: epoll server in this process, loadgen child
/// forked + re-exec'd with --wave-client, its JSON report read off a pipe.
NetWaveResult RunNetWave(long connections, long slo_ms) {
  NetWaveResult result;
  result.connections = connections;

  MovieLensConfig config;
  config.num_users = 25;
  config.num_movies = 8;
  config.seed = 99;
  engine::Engine::Options engine_options;
  engine_options.cache.max_bytes = 16 * 1024 * 1024;
  std::unique_ptr<engine::Engine> eng = engine::Engine::FromDataset(
      MovieLensGenerator::Generate(config), engine_options);
  serve::Router router(eng.get());

  net::EpollServer::Options options;
  options.port = 0;
  options.shards = 2;
  options.handler_threads = 4;
  options.max_inflight = static_cast<int>(connections) + 64;
  // The whole wave must fit inside the budgets: reaping mid-wave would
  // turn held-open keep-alive connections into spurious errors.
  options.read_timeout_ms = 120000;
  options.idle_timeout_ms = 120000;
  net::EpollServer server(options,
                          [&router](const serve::HttpRequest& request) {
                            return router.Handle(request);
                          });
  if (Status status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "wave: server start failed: %s\n",
                 status.ToString().c_str());
    return result;
  }

  std::string port_arg = "--port=" + std::to_string(server.port());
  std::string conn_arg = "--wave-connections=" + std::to_string(connections);
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) {
    std::perror("pipe");
    server.Stop();
    return result;
  }
  pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    server.Stop();
    return result;
  }
  if (pid == 0) {
    dup2(pipe_fds[1], STDOUT_FILENO);
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    char self[] = "/proc/self/exe";
    char mode[] = "--wave-client";
    char* child_argv[] = {self, mode, port_arg.data(), conn_arg.data(),
                          nullptr};
    execv(self, child_argv);
    _exit(127);
  }
  close(pipe_fds[1]);
  std::string child_report;
  char buf[4096];
  ssize_t n;
  while ((n = read(pipe_fds[0], buf, sizeof(buf))) > 0) {
    child_report.append(buf, static_cast<size_t>(n));
  }
  close(pipe_fds[0]);
  int wait_status = 0;
  waitpid(pid, &wait_status, 0);
  server.Stop();

  Result<JsonValue> doc = ParseJson(child_report);
  if (!doc.ok()) {
    std::fprintf(stderr, "wave: unparseable child report: %s\n",
                 child_report.c_str());
    return result;
  }
  auto int_field = [&doc](const char* key) -> long {
    const JsonValue* value = doc.value().Find(key);
    return value == nullptr ? -1 : static_cast<long>(value->int_value());
  };
  auto double_field = [&doc](const char* key) -> double {
    const JsonValue* value = doc.value().Find(key);
    return value == nullptr ? 0.0 : value->double_value();
  };
  result.established = int_field("established");
  result.errors = int_field("errors");
  result.requests = int_field("requests");
  result.p50_ns = double_field("p50_ns");
  result.p99_ns = double_field("p99_ns");
  result.ramp_ms = double_field("ramp_ms");
  result.sweep_ms = double_field("sweep_ms");
  result.pass = WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 0 &&
                result.established == connections && result.errors == 0 &&
                result.p99_ns <= static_cast<double>(slo_ms) * 1e6;
  std::fprintf(stderr,
               "wave: connections=%ld established=%ld errors=%ld "
               "requests=%ld p50=%.0fus p99=%.0fus ramp=%.0fms "
               "sweep=%.0fms %s\n",
               connections, result.established, result.errors,
               result.requests, result.p50_ns / 1e3, result.p99_ns / 1e3,
               result.ramp_ms, result.sweep_ms,
               result.pass ? "PASS" : "FAIL");
  return result;
}

struct FanoutResult {
  long requests = 0;
  long failures = 0;
  long cache_misses = 0;
  double single_rps = 0.0;
  double fanned_rps = 0.0;
  double speedup = 0.0;
  unsigned hardware_threads = 0;
  bool gate_waived = false;
  bool pass = false;
};

/// One replica of the fan-out fleet: engine booted from the shared
/// snapshot behind Router + EpollServer.
struct FanoutReplica {
  std::unique_ptr<engine::Engine> engine;
  std::unique_ptr<serve::Router> router;
  std::unique_ptr<net::EpollServer> server;
};

double MeasureBalancerRps(net::Balancer& balancer,
                          const std::vector<std::string>& bodies, int threads,
                          int per_thread, std::atomic<long>* failures,
                          std::atomic<long>* misses) {
  std::vector<std::thread> workers;
  const int64_t start = NowNanos();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < per_thread; ++i) {
        serve::HttpRequest request;
        request.method = "POST";
        request.target = "/v1/summarize";
        request.version = "HTTP/1.1";
        request.body = bodies[static_cast<size_t>(t + i) % bodies.size()];
        serve::HttpResponse response = balancer.Handle(request);
        if (response.status != 200) {
          failures->fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        bool hit = false;
        for (const auto& [name, value] : response.headers) {
          if (name == "x-prox-cache" && value == "hit") hit = true;
        }
        if (!hit) misses->fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double wall_seconds =
      static_cast<double>(NowNanos() - start) / 1e9;
  return wall_seconds <= 0.0
             ? 0.0
             : static_cast<double>(threads) * per_thread / wall_seconds;
}

/// Fanout phase of --json-net: warm 12 summarize bodies, persist the
/// snapshot, boot 3 replicas from it, and race a 3-replica Balancer
/// against a ring of one over the cached set.
FanoutResult RunNetFanout() {
  FanoutResult result;
  result.hardware_threads = std::thread::hardware_concurrency();
  result.gate_waived = result.hardware_threads < 4;

  std::vector<std::string> bodies;
  for (int i = 0; i < 12; ++i) {
    bodies.push_back("{\"w_dist\":0." + std::to_string(i % 9 + 1) +
                     ",\"max_steps\":" + std::to_string(3 + i) + "}");
  }

  MovieLensConfig config;
  config.num_users = 25;
  config.num_movies = 8;
  config.seed = 99;
  engine::Engine::Options engine_options;
  engine_options.cache.max_bytes = 64 * 1024 * 1024;
  std::unique_ptr<engine::Engine> warm = engine::Engine::FromDataset(
      MovieLensGenerator::Generate(config), engine_options);
  for (const std::string& body : bodies) {
    engine::Engine::Response response = warm->HandleSummarize(body);
    if (!response.ok()) {
      std::fprintf(stderr, "fanout: warmup summarize failed: %s\n",
                   response.status.ToString().c_str());
      return result;
    }
  }
  const std::string snapshot_path =
      "/tmp/prox_bench_net_" + std::to_string(getpid()) + ".proxsnap";
  if (Status status = warm->PersistSnapshot(snapshot_path); !status.ok()) {
    std::fprintf(stderr, "fanout: snapshot persist failed: %s\n",
                 status.ToString().c_str());
    return result;
  }
  warm.reset();

  std::vector<std::unique_ptr<FanoutReplica>> replicas;
  std::vector<std::string> endpoints;
  for (int i = 0; i < 3; ++i) {
    auto replica = std::make_unique<FanoutReplica>();
    engine::Engine::Options replica_options;
    replica_options.dataset.snapshot_path = snapshot_path;
    replica_options.cache.max_bytes = 64 * 1024 * 1024;
    Result<std::unique_ptr<engine::Engine>> booted =
        engine::Engine::Create(replica_options);
    if (!booted.ok()) {
      std::fprintf(stderr, "fanout: replica boot failed: %s\n",
                   booted.status().ToString().c_str());
      std::remove(snapshot_path.c_str());
      return result;
    }
    replica->engine = std::move(booted).value();
    replica->router =
        std::make_unique<serve::Router>(replica->engine.get());
    net::EpollServer::Options server_options;
    server_options.port = 0;
    server_options.shards = 1;
    server_options.handler_threads = 2;
    replica->server = std::make_unique<net::EpollServer>(
        server_options, [router = replica->router.get()](
                            const serve::HttpRequest& request) {
          return router->Handle(request);
        });
    if (Status status = replica->server->Start(); !status.ok()) {
      std::fprintf(stderr, "fanout: replica start failed: %s\n",
                   status.ToString().c_str());
      std::remove(snapshot_path.c_str());
      return result;
    }
    endpoints.push_back("127.0.0.1:" +
                        std::to_string(replica->server->port()));
    replicas.push_back(std::move(replica));
  }

  constexpr int kThreads = 4;
  constexpr int kPerThread = 150;
  std::atomic<long> failures{0};
  std::atomic<long> misses{0};

  net::Balancer::Options single_options;
  single_options.replicas = {endpoints[0]};
  single_options.health_interval_ms = 0;
  net::Balancer single(single_options);
  if (single.Start().ok()) {
    result.single_rps = MeasureBalancerRps(single, bodies, kThreads,
                                           kPerThread, &failures, &misses);
  }
  single.Stop();

  net::Balancer::Options fan_options;
  fan_options.replicas = endpoints;
  fan_options.health_interval_ms = 0;
  net::Balancer fanned(fan_options);
  if (fanned.Start().ok()) {
    result.fanned_rps = MeasureBalancerRps(fanned, bodies, kThreads,
                                           kPerThread, &failures, &misses);
  }
  fanned.Stop();

  for (auto& replica : replicas) replica->server->Stop();
  std::remove(snapshot_path.c_str());

  result.requests = 2L * kThreads * kPerThread;
  result.failures = failures.load();
  result.cache_misses = misses.load();
  result.speedup = result.single_rps <= 0.0
                       ? 0.0
                       : result.fanned_rps / result.single_rps;
  result.pass = result.failures == 0 && result.cache_misses == 0 &&
                result.single_rps > 0.0 && result.fanned_rps > 0.0 &&
                (result.speedup >= 2.0 || result.gate_waived);
  std::fprintf(stderr,
               "fanout: single=%.0f req/s fanned(3)=%.0f req/s "
               "speedup=%.2fx failures=%ld misses=%ld hw_threads=%u%s %s\n",
               result.single_rps, result.fanned_rps, result.speedup,
               result.failures, result.cache_misses, result.hardware_threads,
               result.gate_waived ? " (2x gate waived: <4 threads)" : "",
               result.pass ? "PASS" : "FAIL");
  return result;
}

/// --json-net: both phases, one committed JSON document (BENCH_net.json).
int RunJsonNet(long wave_connections, long slo_ms) {
  NetWaveResult wave = RunNetWave(wave_connections, slo_ms);
  FanoutResult fanout = RunNetFanout();
  const bool ok = wave.pass && fanout.pass;
  std::printf(
      "{\n"
      "  \"bench\": \"bench_serve_throughput --json-net\",\n"
      "  \"workload\": \"wave: %ld keep-alive connections x 2 rounds of "
      "GET /healthz against one epoll replica; fanout: 12 cached "
      "summarize bodies over 3 snapshot-booted replicas behind the "
      "consistent-hash balancer vs a ring of one\",\n"
      "  \"contract\": \"wave: every connect established, zero errors, "
      "client p99 <= slo_ms; fanout: zero failures, every response a "
      "cache hit, speedup >= 2.0 unless hardware_threads < 4 (waiver "
      "recorded)\",\n"
      "  \"wave\": {\n"
      "    \"connections\": %ld,\n"
      "    \"established\": %ld,\n"
      "    \"errors\": %ld,\n"
      "    \"requests\": %ld,\n"
      "    \"p50_ms\": %.3f,\n"
      "    \"p99_ms\": %.3f,\n"
      "    \"ramp_ms\": %.1f,\n"
      "    \"sweep_ms\": %.1f,\n"
      "    \"slo_ms\": %ld,\n"
      "    \"pass\": %s\n"
      "  },\n"
      "  \"fanout\": {\n"
      "    \"replicas\": 3,\n"
      "    \"requests\": %ld,\n"
      "    \"failures\": %ld,\n"
      "    \"cache_misses\": %ld,\n"
      "    \"single_rps\": %.0f,\n"
      "    \"fanned_rps\": %.0f,\n"
      "    \"speedup\": %.2f,\n"
      "    \"hardware_threads\": %u,\n"
      "    \"gate_waived\": %s,\n"
      "    \"pass\": %s\n"
      "  },\n"
      "  \"ok\": %s\n"
      "}\n",
      wave_connections, wave.connections, wave.established, wave.errors,
      wave.requests, wave.p50_ns / 1e6, wave.p99_ns / 1e6, wave.ramp_ms,
      wave.sweep_ms, slo_ms, wave.pass ? "true" : "false", fanout.requests,
      fanout.failures, fanout.cache_misses, fanout.single_rps,
      fanout.fanned_rps, fanout.speedup, fanout.hardware_threads,
      fanout.gate_waived ? "true" : "false", fanout.pass ? "true" : "false",
      ok ? "true" : "false");
  return ok ? 0 : 1;
}

long IntFlag(const std::string& arg, const char* flag, long fallback,
             bool* matched) {
  std::string prefix = std::string(flag) + "=";
  if (arg.rfind(prefix, 0) != 0) {
    *matched = false;
    return fallback;
  }
  *matched = true;
  return std::strtol(arg.c_str() + prefix.size(), nullptr, 10);
}

}  // namespace

int main(int argc, char** argv) {
  long clients = 8;
  long requests = 16;
  long threads = 4;
  long cache_mb = 64;
  long max_steps = 8;
  long slo_ms = 250;
  long wave_connections = 10000;
  long wave_port = 0;
  long wave_batch = 256;
  long wave_window = 512;
  bool json_mode = false;
  bool json_net_mode = false;
  bool wave_client_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json_mode = true;
      continue;
    }
    if (arg == "--json-net") {
      json_net_mode = true;
      continue;
    }
    if (arg == "--wave-client") {
      wave_client_mode = true;
      continue;
    }
    bool matched = false;
    clients = IntFlag(arg, "--clients", clients, &matched);
    if (matched) continue;
    requests = IntFlag(arg, "--requests", requests, &matched);
    if (matched) continue;
    threads = IntFlag(arg, "--threads", threads, &matched);
    if (matched) continue;
    cache_mb = IntFlag(arg, "--cache-mb", cache_mb, &matched);
    if (matched) continue;
    max_steps = IntFlag(arg, "--max-steps", max_steps, &matched);
    if (matched) continue;
    slo_ms = IntFlag(arg, "--slo-ms", slo_ms, &matched);
    if (matched) continue;
    wave_connections =
        IntFlag(arg, "--wave-connections", wave_connections, &matched);
    if (matched) continue;
    wave_port = IntFlag(arg, "--port", wave_port, &matched);
    if (matched) continue;
    wave_batch = IntFlag(arg, "--batch", wave_batch, &matched);
    if (matched) continue;
    wave_window = IntFlag(arg, "--window", wave_window, &matched);
    if (matched) continue;
    std::fprintf(stderr,
                 "usage: bench_serve_throughput [--clients=N] [--requests=N]"
                 " [--threads=N] [--cache-mb=N] [--max-steps=N]"
                 " [--slo-ms=N] [--json]"
                 " [--json-net [--wave-connections=N]]\n");
    return 2;
  }
  if (wave_client_mode) {
    if (wave_port <= 0) {
      std::fprintf(stderr, "--wave-client needs --port=N\n");
      return 2;
    }
    return RunWaveClient(static_cast<int>(wave_port), wave_connections,
                         wave_batch, wave_window, /*rounds=*/2);
  }
  if (json_net_mode) return RunJsonNet(wave_connections, slo_ms);
  if (json_mode && !obs::Enabled()) {
    std::fprintf(stderr,
                 "bench_serve_throughput: --json reads the per-endpoint "
                 "histograms and needs obs recording on (unset PROX_OBS)\n");
    return 2;
  }
  // Human-readable lines move to stderr in --json mode; stdout is the doc.
  std::FILE* out = json_mode ? stderr : stdout;

  MovieLensConfig config;
  config.num_users = 25;
  config.num_movies = 8;
  config.seed = 99;
  engine::Engine::Options engine_options;
  engine_options.cache.max_bytes = static_cast<size_t>(cache_mb) * 1024 * 1024;
  std::unique_ptr<engine::Engine> eng = engine::Engine::FromDataset(
      MovieLensGenerator::Generate(config), engine_options);
  engine::SummaryCache& cache = eng->cache();
  serve::Router::Options router_options;
  router_options.route_stats.slo_latency_nanos = slo_ms * 1'000'000;
  serve::Router router(eng.get(), router_options);

  net::EpollServer::Options options;
  options.port = 0;
  options.handler_threads = static_cast<int>(threads);
  options.max_inflight = static_cast<int>(clients) * 2 + 8;
  net::EpollServer server(options, [&router](const serve::HttpRequest& req) {
    return router.Handle(req);
  });
  if (Status status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "bench_serve_throughput: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  const std::string body = "{\"w_dist\":0.7,\"w_size\":0.3,\"max_steps\":" +
                           std::to_string(max_steps) + "}";
  std::fprintf(out,
               "bench_serve_throughput: port=%d clients=%ld requests=%ld "
               "threads=%ld\n",
               server.port(), clients, requests, threads);

  WaveResult cold = RunWave(server.port(), static_cast<int>(clients),
                            static_cast<int>(requests), body);
  engine::SummaryCache::Stats after_cold = cache.stats();
  WaveResult cached = RunWave(server.port(), static_cast<int>(clients),
                              static_cast<int>(requests), body);
  engine::SummaryCache::Stats after_cached = cache.stats();

  PrintWave(out, "cold", cold);
  PrintWave(out, "cached", cached);

  uint64_t wave2_hits = after_cached.hits - after_cold.hits;
  uint64_t total_lookups = after_cached.hits + after_cached.misses;
  std::fprintf(out,
               "cache: hits=%llu misses=%llu hit_rate=%.3f "
               "wave2_hits=%llu entries=%zu bytes=%zu\n",
               static_cast<unsigned long long>(after_cached.hits),
               static_cast<unsigned long long>(after_cached.misses),
               total_lookups == 0 ? 0.0
                                  : static_cast<double>(after_cached.hits) /
                                        static_cast<double>(total_lookups),
               static_cast<unsigned long long>(wave2_hits),
               after_cached.entries, after_cached.bytes);

  // Refresh the rolling-window gauges from the route rings, then read the
  // server-side view of what the waves just did.
  router.route_stats().ExportGauges();
  ServerSideStats server_stats = ReadServerSideStats();

  server.Stop();

  bool ok = true;
  if (cold.failures + cached.failures > 0) {
    std::fprintf(stderr, "FAIL: %d requests failed\n",
                 cold.failures + cached.failures);
    ok = false;
  }
  std::set<std::string> all_bodies = cold.distinct_bodies;
  all_bodies.insert(cached.distinct_bodies.begin(),
                    cached.distinct_bodies.end());
  if (all_bodies.size() != 1) {
    std::fprintf(stderr, "FAIL: %zu distinct response bodies (want 1)\n",
                 all_bodies.size());
    ok = false;
  }
  if (wave2_hits == 0) {
    std::fprintf(stderr, "FAIL: second wave recorded no cache hits\n");
    ok = false;
  }
  if (cached.wall_nanos >= cold.wall_nanos) {
    // Informational, not fatal: on loaded machines wave walls can jitter,
    // but the cold wave includes a full Algorithm 1 run and should lose.
    std::fprintf(stderr,
                 "WARN: cached wave (%.1fms) not faster than cold (%.1fms)\n",
                 static_cast<double>(cached.wall_nanos) / 1e6,
                 static_cast<double>(cold.wall_nanos) / 1e6);
  }

  if (json_mode) {
    // The client saw every request the server histogram counted; compare
    // both percentile views over the same combined sample set.
    std::vector<int64_t> all_latencies = cold.latencies_nanos;
    all_latencies.insert(all_latencies.end(), cached.latencies_nanos.begin(),
                         cached.latencies_nanos.end());
    const double client_p50 = Percentile(all_latencies, 0.50);
    const double client_p99 = Percentile(all_latencies, 0.99);
    const uint64_t requests_served = all_latencies.size();
    const double slo_nanos = static_cast<double>(slo_ms) * 1e6;

    if (!server_stats.found) {
      std::fprintf(stderr,
                   "FAIL: /v1/summarize route metrics absent from the "
                   "registry\n");
      ok = false;
    } else {
      if (server_stats.histogram_count != requests_served) {
        std::fprintf(stderr,
                     "FAIL: route histogram count %llu != %llu requests "
                     "served\n",
                     static_cast<unsigned long long>(
                         server_stats.histogram_count),
                     static_cast<unsigned long long>(requests_served));
        ok = false;
      }
      if (!WithinTolerance(server_stats.p50_nanos, client_p50)) {
        std::fprintf(stderr,
                     "FAIL: server p50 %.0fus vs client p50 %.0fus outside "
                     "tolerance\n",
                     server_stats.p50_nanos / 1e3, client_p50 / 1e3);
        ok = false;
      }
      if (!WithinTolerance(server_stats.p99_nanos, client_p99)) {
        std::fprintf(stderr,
                     "FAIL: server p99 %.0fus vs client p99 %.0fus outside "
                     "tolerance\n",
                     server_stats.p99_nanos / 1e3, client_p99 / 1e3);
        ok = false;
      }
      if (server_stats.p99_nanos > slo_nanos) {
        std::fprintf(stderr,
                     "FAIL: server p99 %.1fms over the %ldms SLO\n",
                     server_stats.p99_nanos / 1e6, slo_ms);
        ok = false;
      }
    }

    std::printf(
        "{\n"
        "  \"bench\": \"bench_serve_throughput --json\",\n"
        "  \"workload\": \"MovieLens 25/8/99, %ld clients x %ld requests x "
        "2 waves, POST /v1/summarize, epoll transport (%ld handler "
        "threads)\",\n"
        "  \"contract\": \"server-side p50/p99 within 15%% (2ms floor) of "
        "client-side; route histogram count == requests served; server p99 "
        "<= slo_ms\",\n"
        "  \"requests_served\": %llu,\n"
        "  \"route_histogram_count\": %llu,\n"
        "  \"client\": {\"p50_ns\": %.0f, \"p99_ns\": %.0f},\n"
        "  \"server\": {\"p50_ns\": %.0f, \"p99_ns\": %.0f},\n"
        "  \"slo\": {\"latency_ms\": %ld, \"server_p99_ms\": %.3f, "
        "\"burn_rate\": %.3f, \"pass\": %s},\n"
        "  \"cache_wave2_hits\": %llu,\n"
        "  \"ok\": %s\n"
        "}\n",
        clients, requests, threads,
        static_cast<unsigned long long>(requests_served),
        static_cast<unsigned long long>(server_stats.histogram_count),
        client_p50, client_p99, server_stats.p50_nanos, server_stats.p99_nanos,
        slo_ms, server_stats.p99_nanos / 1e6, server_stats.burn_rate,
        server_stats.p99_nanos <= slo_nanos ? "true" : "false",
        static_cast<unsigned long long>(wave2_hits), ok ? "true" : "false");
  }

  std::fprintf(out, "bench_serve_throughput: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
