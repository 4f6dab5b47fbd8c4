/// \file prox_router.cpp
/// \brief Consistent-hash front end over `prox_server` replicas booted
/// from one shared PROXSNAP snapshot (docs/NET.md). The router owns no
/// dataset: it hashes each request (dataset fingerprint + target + body)
/// onto a virtual-node ring over the replicas, so every replica's
/// SummaryCache serves a stable slice of the workload, and replays
/// idempotent GETs once on the next ring successor when a replica dies.
///
///   GET  /healthz   router health + per-replica health states
///   GET  /metrics   the router's own series (prox_net_balancer_*)
///   anything else   forwarded; the answering replica is named in the
///                   X-Prox-Replica response header
///
/// Flags:
///   --port=N              listen port (default 8090; 0 = ephemeral)
///   --replica=host:port   a replica endpoint; repeat once per replica
///   --vnodes=N            virtual nodes per replica (default 64)
///   --health-interval-ms=N
///                         active /healthz probe period; 0 = passive
///                         detection only (default 1000)
///   --shards=N            epoll event-loop shards (default: half the
///                         cores, clamped to [1, 8])
///   --threads=N           forwarding worker threads (default 4)
///
/// SIGINT / SIGTERM drain in-flight requests and exit 0.

#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "net/balancer.h"
#include "net/epoll_server.h"

using namespace prox;

namespace {

void PrintUsage() {
  std::printf(
      "usage: prox_router --replica=host:port [--replica=host:port ...]\n"
      "                   [--port=N] [--vnodes=N] [--health-interval-ms=N]\n"
      "                   [--shards=N] [--threads=N]\n"
      "\n"
      "Consistent-hash balancer over prox_server replicas (docs/NET.md):\n"
      "requests map to replicas by dataset fingerprint + target + body,\n"
      "idempotent GETs retry once on the next ring replica on failure,\n"
      "/healthz reports per-replica health. SIGINT drains and exits 0.\n");
}

/// `--flag=value` integer parse; exits 2 on garbage, negatives and
/// anything past INT_MAX (every consumer narrows to int).
bool ParseIntFlag(const std::string& arg, const char* flag, long* out) {
  std::string prefix = std::string(flag) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  char* end = nullptr;
  const std::string value = arg.substr(prefix.size());
  errno = 0;
  *out = std::strtol(value.c_str(), &end, 10);
  if (value.empty() || end != value.c_str() + value.size() || *out < 0 ||
      *out > INT_MAX || errno == ERANGE) {
    std::fprintf(stderr, "prox_router: bad value in %s\n", arg.c_str());
    std::exit(2);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  long port = 8090;
  long vnodes = 64;
  long health_interval_ms = 1000;
  long shards = 0;
  long threads = 4;
  std::vector<std::string> replicas;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    }
    if (arg.rfind("--replica=", 0) == 0) {
      replicas.push_back(arg.substr(std::string("--replica=").size()));
      continue;
    }
    if (ParseIntFlag(arg, "--port", &port) ||
        ParseIntFlag(arg, "--vnodes", &vnodes) ||
        ParseIntFlag(arg, "--health-interval-ms", &health_interval_ms) ||
        ParseIntFlag(arg, "--shards", &shards) ||
        ParseIntFlag(arg, "--threads", &threads)) {
      continue;
    }
    std::fprintf(stderr, "prox_router: unknown flag %s\n", arg.c_str());
    PrintUsage();
    return 2;
  }
  if (replicas.empty()) {
    std::fprintf(stderr, "prox_router: at least one --replica is required\n");
    PrintUsage();
    return 2;
  }

  sigset_t shutdown_signals;
  sigemptyset(&shutdown_signals);
  sigaddset(&shutdown_signals, SIGINT);
  sigaddset(&shutdown_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &shutdown_signals, nullptr);

  net::Balancer::Options balancer_options;
  balancer_options.replicas = replicas;
  balancer_options.vnodes = static_cast<int>(vnodes);
  balancer_options.health_interval_ms = static_cast<int>(health_interval_ms);
  net::Balancer balancer(balancer_options);
  if (Status status = balancer.Start(); !status.ok()) {
    std::fprintf(stderr, "prox_router: %s\n", status.ToString().c_str());
    return 1;
  }

  net::EpollServer::Options server_options;
  server_options.port = static_cast<int>(port);
  server_options.shards = static_cast<int>(shards);
  server_options.handler_threads = static_cast<int>(threads);
  net::EpollServer server(server_options,
                          [&balancer](const serve::HttpRequest& request) {
                            return balancer.Handle(request);
                          });
  if (Status status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "prox_router: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("prox_router: listening on 127.0.0.1:%d (%zu replicas, "
              "%ld vnodes, health interval %ld ms)\n",
              server.port(), replicas.size(), vnodes, health_interval_ms);
  std::fflush(stdout);

  int signal_number = 0;
  sigwait(&shutdown_signals, &signal_number);
  std::printf("prox_router: signal %d, draining\n", signal_number);
  std::fflush(stdout);
  server.Stop();
  balancer.Stop();
  std::printf("prox_router: drained, bye\n");
  return 0;
}
