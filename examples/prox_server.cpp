/// \file prox_server.cpp
/// \brief The PROX service, served: an HTTP front end over the
/// prox::engine::Engine facade (dataset, session, sharded summary cache
/// and ingest maintainer all live behind it), turning the Chapter 7 web
/// UI's three views into network endpoints (docs/SERVING.md):
///
///   POST /v1/select            selection view
///   POST /v1/summarize         Algorithm 1 (cached by selection + knobs)
///   GET  /v1/summary/groups    summary view, groups subview
///   POST /v1/evaluate          approximate provisioning
///   GET  /healthz              liveness + dataset fingerprint
///   GET  /metrics              Prometheus text (prox::obs)
///
/// Flags:
///   --port=N          listen port (default 8080; 0 = ephemeral, printed)
///   --transport=epoll the only transport (docs/NET.md): keep-alive
///                     connections park in epoll event-loop shards and
///                     handlers run on a worker pool. Accepted for
///                     compatibility; any other value exits 2.
///   --shards=N        epoll event-loop shards (default: half the cores,
///                     clamped to [1, 8])
///   --keepalive-ms=N  idle keep-alive budget before a connection is
///                     reaped (default 15000; counted in
///                     prox_serve_idle_reaped_total)
///   --threads=N       request handler threads (default 4)
///   --cache-mb=N      SummaryCache byte budget in MiB (default 64)
///   --max-inflight=N  admitted-connection bound; beyond it new
///                     connections are shed with 503 (default 64)
///   --users=N --movies=N --seed=N
///                     MovieLens-style dataset shape (defaults 25/8/99,
///                     the prox_cli dataset)
///   --snapshot=<path> boot from a PROXSNAP snapshot (docs/STORE.md)
///                     instead of generating the dataset; persisted cache
///                     entries (if any) are restored warm. A snapshot
///                     that fails validation exits 1.
///   --cache-persist=<path>
///                     on shutdown, write the dataset plus the live
///                     summary cache as a snapshot to <path>, so the next
///                     --snapshot boot serves its first request warm
///   --access-log[=<path>]
///                     write one JSON access-log line per request
///                     (docs/OBSERVABILITY.md schema) to <path>, or to
///                     stderr when no path is given
///   --debug-endpoints enable GET /v1/debug/requests (the flight
///                     recorder: slowest + errored requests with spans)
///   --simd=TIER       cap the batch-kernel SIMD tier (docs/KERNELS.md):
///                     off|scalar|0, sse4.2|sse42|1, auto|avx2|2. Results
///                     are bit-identical at every tier; PROX_SIMD is the
///                     environment equivalent.
///
/// SIGINT / SIGTERM drain in-flight requests and exit 0.

#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>

#include "common/cpu_features.h"
#include "engine/engine.h"
#include "net/epoll_server.h"
#include "obs/log.h"
#include "serve/router.h"

using namespace prox;

namespace {

void PrintUsage() {
  std::printf(
      "usage: prox_server [--port=N] [--transport=epoll]\n"
      "                   [--shards=N] [--keepalive-ms=N] [--threads=N]\n"
      "                   [--cache-mb=N] [--max-inflight=N] [--users=N]\n"
      "                   [--movies=N] [--seed=N] [--snapshot=<path>]\n"
      "                   [--cache-persist=<path>] [--simd=TIER]\n"
      "                   [--access-log[=<path>]] [--debug-endpoints]\n"
      "\n"
      "Connections are served by epoll event-loop shards (docs/NET.md):\n"
      "idle keep-alive connections cost an fd, not a thread. --shards\n"
      "sizes the loops, --threads the handler pool, --keepalive-ms\n"
      "bounds idle connections.\n"
      "--simd caps the batch-kernel SIMD tier (off|scalar, sse4.2,\n"
      "auto|avx2; results are bit-identical at every tier — see\n"
      "docs/KERNELS.md). PROX_SIMD=0 is the env equivalent.\n"
      "Serves the PROX session workflow over HTTP/1.1 (docs/SERVING.md).\n"
      "--snapshot boots from a PROXSNAP file and restores any persisted\n"
      "summary cache warm; --cache-persist writes one on shutdown\n"
      "(docs/STORE.md). --access-log emits one JSON line per request;\n"
      "--debug-endpoints exposes the flight recorder at\n"
      "GET /v1/debug/requests (docs/OBSERVABILITY.md). SIGINT drains\n"
      "in-flight requests and exits 0.\n");
}

/// `--flag=value` integer parse; exits with usage on garbage, negatives
/// and anything past INT_MAX (every consumer narrows to int).
bool ParseIntFlag(const std::string& arg, const char* flag, long* out) {
  std::string prefix = std::string(flag) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  char* end = nullptr;
  const std::string value = arg.substr(prefix.size());
  errno = 0;
  *out = std::strtol(value.c_str(), &end, 10);
  if (value.empty() || end != value.c_str() + value.size() || *out < 0 ||
      *out > INT_MAX || errno == ERANGE) {
    std::fprintf(stderr, "prox_server: bad value in %s\n", arg.c_str());
    std::exit(2);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  long port = 8080;
  long shards = 0;
  long keepalive_ms = 15000;
  long threads = 4;
  long cache_mb = 64;
  long max_inflight = 64;
  long users = 25;
  long movies = 8;
  long seed = 99;
  std::string snapshot_path;
  std::string cache_persist;
  bool access_log = false;
  std::string access_log_path;
  bool debug_endpoints = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    }
    if (arg.rfind("--transport=", 0) == 0) {
      if (arg != "--transport=epoll") {
        std::fprintf(stderr,
                     "prox_server: bad --transport value in %s (epoll is "
                     "the only transport; the blocking transport was "
                     "removed)\n",
                     arg.c_str());
        return 2;
      }
      continue;
    }
    if (ParseIntFlag(arg, "--port", &port) ||
        ParseIntFlag(arg, "--shards", &shards) ||
        ParseIntFlag(arg, "--keepalive-ms", &keepalive_ms) ||
        ParseIntFlag(arg, "--threads", &threads) ||
        ParseIntFlag(arg, "--cache-mb", &cache_mb) ||
        ParseIntFlag(arg, "--max-inflight", &max_inflight) ||
        ParseIntFlag(arg, "--users", &users) ||
        ParseIntFlag(arg, "--movies", &movies) ||
        ParseIntFlag(arg, "--seed", &seed)) {
      continue;
    }
    if (arg.rfind("--simd=", 0) == 0) {
      const std::string value = arg.substr(std::string("--simd=").size());
      if (value == "off" || value == "scalar" || value == "0") {
        common::SetSimdTierCap(common::SimdTier::kScalar);
      } else if (value == "sse4.2" || value == "sse42" || value == "1") {
        common::SetSimdTierCap(common::SimdTier::kSse42);
      } else if (value == "auto" || value == "avx2" || value == "2") {
        common::SetSimdTierCap(common::SimdTier::kAvx2);
      } else {
        std::fprintf(stderr, "prox_server: bad --simd value in %s\n",
                     arg.c_str());
        return 2;
      }
      continue;
    }
    if (arg.rfind("--snapshot=", 0) == 0) {
      snapshot_path = arg.substr(std::string("--snapshot=").size());
      continue;
    }
    if (arg.rfind("--cache-persist=", 0) == 0) {
      cache_persist = arg.substr(std::string("--cache-persist=").size());
      continue;
    }
    if (arg == "--access-log") {
      access_log = true;
      continue;
    }
    if (arg.rfind("--access-log=", 0) == 0) {
      access_log = true;
      access_log_path = arg.substr(std::string("--access-log=").size());
      continue;
    }
    if (arg == "--debug-endpoints") {
      debug_endpoints = true;
      continue;
    }
    std::fprintf(stderr, "prox_server: unknown flag %s\n", arg.c_str());
    PrintUsage();
    return 2;
  }

  // Block the shutdown signals before any thread spawns so every thread
  // inherits the mask and only the sigwait below sees them.
  sigset_t shutdown_signals;
  sigemptyset(&shutdown_signals);
  sigaddset(&shutdown_signals, SIGINT);
  sigaddset(&shutdown_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &shutdown_signals, nullptr);

  // Boot the engine: generate the demo shape, or fail closed on any
  // snapshot validation error — a server must never come up serving a
  // corrupt dataset. Persisted cache entries restore warm.
  engine::Engine::Options engine_options;
  if (snapshot_path.empty()) {
    engine_options.dataset.num_users = static_cast<int>(users);
    engine_options.dataset.num_groups = static_cast<int>(movies);
    engine_options.dataset.seed = static_cast<uint64_t>(seed);
    engine_options.dataset.seed_set = true;
  } else {
    engine_options.dataset.snapshot_path = snapshot_path;
  }
  engine_options.cache.max_bytes = static_cast<size_t>(cache_mb) * 1024 * 1024;
  Result<std::unique_ptr<engine::Engine>> booted =
      engine::Engine::Create(engine_options);
  if (!booted.ok()) {
    std::fprintf(stderr, "prox_server: %s\n",
                 booted.status().message().c_str());
    return 1;
  }
  engine::Engine& engine = *booted.value();

  // The sink (and its FILE*) must outlive the server; both are released
  // only after Stop() below has drained every worker.
  std::FILE* access_log_file = nullptr;
  std::unique_ptr<obs::FileLogSink> access_log_sink;
  if (access_log) {
    if (!access_log_path.empty()) {
      access_log_file = std::fopen(access_log_path.c_str(), "a");
      if (access_log_file == nullptr) {
        std::fprintf(stderr, "prox_server: cannot open access log %s\n",
                     access_log_path.c_str());
        return 1;
      }
    }
    access_log_sink = std::make_unique<obs::FileLogSink>(
        access_log_file != nullptr ? access_log_file : stderr);
    obs::SetAccessLogSink(access_log_sink.get());
  }

  serve::Router::Options router_options;
  router_options.debug_endpoints = debug_endpoints;
  serve::Router router(&engine, router_options);

  auto handler = [&router](const serve::HttpRequest& req) {
    return router.Handle(req);
  };
  net::EpollServer::Options server_options;
  server_options.port = static_cast<int>(port);
  server_options.shards = static_cast<int>(shards);
  server_options.handler_threads = static_cast<int>(threads);
  server_options.max_inflight = static_cast<int>(max_inflight);
  server_options.idle_timeout_ms = static_cast<int>(keepalive_ms);
  net::EpollServer server(server_options, handler);
  if (Status status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "prox_server: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("prox_server: listening on 127.0.0.1:%d (epoll transport, "
              "%ld workers, cache %ld MiB, max-inflight %ld, dataset %s)\n",
              server.port(), threads, cache_mb, max_inflight,
              router.dataset_fingerprint().c_str());
  std::fflush(stdout);

  int signal_number = 0;
  sigwait(&shutdown_signals, &signal_number);
  std::printf("prox_server: signal %d, draining\n", signal_number);
  std::fflush(stdout);
  server.Stop();
  if (access_log_sink != nullptr) {
    obs::SetAccessLogSink(nullptr);
    if (access_log_file != nullptr) std::fclose(access_log_file);
  }

  if (!cache_persist.empty()) {
    // The engine persists under its current fingerprint: summarize runs
    // registered summary annotations since boot, and cache keys must
    // match what the next --snapshot boot computes.
    if (Status s = engine.PersistSnapshot(cache_persist); !s.ok()) {
      std::fprintf(stderr, "prox_server: cache-persist failed: %s\n",
                   s.message().c_str());
      return 1;
    }
    std::printf("prox_server: snapshot persisted to %s\n",
                cache_persist.c_str());
  }
  std::printf("prox_server: drained, bye\n");
  return 0;
}
