/// End-to-end tests of the epoll transport over a real loopback socket:
/// a MovieLens session behind Router + EpollServer, driven by
/// serve::ClientConnection. Covers the routes, cache identity, port
/// validation, parser errors, split sends and pipelining, 503 shedding,
/// idle reaping without a thread parked per connection, 408 on
/// mid-request stalls, many concurrent keep-alive clients on a handful
/// of threads, peer aborts and the drain. The route-level serving
/// contract (single-flight, select/groups/evaluate, validation errors,
/// /metrics) is tests/serve/server_loopback_test.cc. Carries the `tsan`
/// CTest label (tests/CMakeLists.txt).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "datasets/movielens.h"
#include "engine/engine.h"
#include "net/epoll_server.h"
#include "net/net_metrics.h"
#include "serve/client.h"
#include "serve/router.h"
#include "serve/serve_metrics.h"

namespace prox {
namespace net {
namespace {

using serve::ClientConnection;
using serve::ClientResponse;
using serve::Fetch;

constexpr char kSummarizeBody[] = "{\"w_dist\":0.7,\"max_steps\":5}";

/// One running epoll server over a fresh small dataset; ephemeral port.
class EpollLoopback {
 public:
  explicit EpollLoopback(EpollServer::Options options = {})
      : engine_(engine::Engine::FromDataset(MakeDataset(), EngineOptions())),
        router_(engine_.get()) {
    options.port = 0;
    if (options.shards == 0) options.shards = 2;
    server_ = std::make_unique<EpollServer>(
        std::move(options), [this](const serve::HttpRequest& request) {
          return router_.Handle(request);
        });
    Status status = server_->Start();
    EXPECT_TRUE(status.ok()) << status.ToString();
  }

  int port() const { return server_->port(); }
  EpollServer& server() { return *server_; }
  engine::SummaryCache& cache() { return engine_->cache(); }

  Result<ClientResponse> Post(const std::string& target,
                              const std::string& body) {
    return Fetch("127.0.0.1", port(), "POST", target, body,
                 /*timeout_ms=*/30000);
  }
  Result<ClientResponse> Get(const std::string& target) {
    return Fetch("127.0.0.1", port(), "GET", target);
  }

 private:
  static Dataset MakeDataset() {
    MovieLensConfig config;
    config.num_users = 12;
    config.num_movies = 5;
    config.seed = 7;
    return MovieLensGenerator::Generate(config);
  }
  static engine::Engine::Options EngineOptions() {
    engine::Engine::Options options;
    options.cache.max_bytes = 4 * 1024 * 1024;
    return options;
  }

  std::unique_ptr<engine::Engine> engine_;
  serve::Router router_;
  std::unique_ptr<EpollServer> server_;
};

TEST(EpollLoopbackTest, HealthzRoutesAndErrors) {
  EpollLoopback fixture;
  auto health = fixture.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health.value().status, 200);
  EXPECT_NE(health.value().body.find("dataset_fingerprint"),
            std::string::npos);

  EXPECT_EQ(fixture.Get("/nope").value().status, 404);
  EXPECT_EQ(fixture.Get("/v1/summarize").value().status, 405);
  EXPECT_EQ(fixture.Post("/v1/summarize", "{nope").value().status, 400);
}

TEST(EpollLoopbackTest, ColdAndCachedBodiesAreByteIdentical) {
  EpollLoopback fixture;
  auto cold = fixture.Post("/v1/summarize", kSummarizeBody);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_EQ(cold.value().status, 200) << cold.value().body;
  EXPECT_EQ(cold.value().Header("x-prox-cache"), "miss");

  engine::SummaryCache::Stats before = fixture.cache().stats();
  auto cached = fixture.Post("/v1/summarize", kSummarizeBody);
  ASSERT_TRUE(cached.ok());
  ASSERT_EQ(cached.value().status, 200);
  EXPECT_EQ(cached.value().Header("x-prox-cache"), "hit");
  EXPECT_EQ(cached.value().body, cold.value().body);
  EXPECT_EQ(fixture.cache().stats().hits, before.hits + 1);

  // The body is the canonical JSON document.
  auto parsed = ParseJson(cold.value().body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NE(parsed.value().Find("final_size"), nullptr);
  EXPECT_NE(parsed.value().Find("groups"), nullptr);
}

TEST(EpollLoopbackTest, StartRejectsOutOfRangePorts) {
  // htons() would wrap 70000 to 4464 and 65536 to 0 (an ephemeral
  // port); Start must refuse both before binding anything.
  for (int port : {65536, 70000, -1}) {
    EpollServer::Options options;
    options.port = port;
    options.shards = 1;
    EpollServer server(options, [](const serve::HttpRequest&) {
      return serve::HttpResponse{};
    });
    Status status = server.Start();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << port << ": " << status.ToString();
    EXPECT_FALSE(server.running()) << port;
    EXPECT_EQ(server.port(), 0) << port;
  }
}

TEST(EpollLoopbackTest, KeepAliveServesManyExchangesOnOneConnection) {
  EpollLoopback fixture;
  auto connection = ClientConnection::Connect("127.0.0.1", fixture.port());
  ASSERT_TRUE(connection.ok());
  ClientConnection client = std::move(connection).value();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.SendRequest("GET", "/healthz").ok()) << i;
    auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok()) << i << ": " << response.status().ToString();
    EXPECT_EQ(response.value().status, 200);
  }
  client.Close();
}

TEST(EpollLoopbackTest, SplitSendsAndPipeliningWork) {
  EpollLoopback fixture;
  auto connection = ClientConnection::Connect("127.0.0.1", fixture.port());
  ASSERT_TRUE(connection.ok());
  ClientConnection client = std::move(connection).value();

  // One request dribbled across three sends — the loop feeds the parser
  // whatever each recv produced.
  ASSERT_TRUE(client.SendRaw("GET /heal").ok());
  ASSERT_TRUE(client.SendRaw("thz HTT").ok());
  ASSERT_TRUE(client.SendRaw("P/1.1\r\nHost: a\r\n\r\n").ok());
  auto first = client.ReadResponse();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().status, 200);

  // Three pipelined requests in one send; answered strictly in order.
  ASSERT_TRUE(client
                  .SendRaw("GET /healthz HTTP/1.1\r\n\r\n"
                           "GET /nope HTTP/1.1\r\n\r\n"
                           "GET /healthz HTTP/1.1\r\n\r\n")
                  .ok());
  auto second = client.ReadResponse();
  auto third = client.ReadResponse();
  auto fourth = client.ReadResponse();
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(third.ok());
  ASSERT_TRUE(fourth.ok());
  EXPECT_EQ(second.value().status, 200);
  EXPECT_EQ(third.value().status, 404);
  EXPECT_EQ(fourth.value().status, 200);
  client.Close();
}

TEST(EpollLoopbackTest, ParserErrorsSurfaceOverTheWire) {
  EpollLoopback fixture;
  auto connection = ClientConnection::Connect("127.0.0.1", fixture.port());
  ASSERT_TRUE(connection.ok());
  ClientConnection client = std::move(connection).value();
  ASSERT_TRUE(client
                  .SendRaw("GET / HTTP/1.1\r\nx-pad: " +
                           std::string(64 * 1024, 'a') + "\r\n\r\n")
                  .ok());
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 431);
}

TEST(EpollLoopbackTest, OverloadShedsWith503) {
  EpollServer::Options options;
  options.max_inflight = 1;
  EpollLoopback fixture(options);
  auto holder = ClientConnection::Connect("127.0.0.1", fixture.port());
  ASSERT_TRUE(holder.ok());
  ClientConnection held = std::move(holder).value();
  // Complete one exchange so the holder definitely occupies the one
  // admission slot before the shed probe connects.
  ASSERT_TRUE(held.SendRequest("GET", "/healthz").ok());
  ASSERT_EQ(held.ReadResponse().value().status, 200);

  auto shed = Fetch("127.0.0.1", fixture.port(), "GET", "/healthz");
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed.value().status, 503);
  held.Close();
}

TEST(EpollLoopbackTest, IdleConnectionsAreReapedAndCounted) {
  EpollServer::Options options;
  options.idle_timeout_ms = 150;
  EpollLoopback fixture(options);
  const uint64_t reaped_before = serve::ServeIdleReaped()->value();

  auto connection = ClientConnection::Connect("127.0.0.1", fixture.port());
  ASSERT_TRUE(connection.ok());
  ClientConnection client = std::move(connection).value();
  ASSERT_TRUE(client.SendRequest("GET", "/healthz").ok());
  ASSERT_EQ(client.ReadResponse().value().status, 200);

  // Sit idle past the budget: the server must close from its side, with
  // no request in flight, and account the reap.
  auto after = client.ReadResponse();
  EXPECT_FALSE(after.ok());
  EXPECT_GE(serve::ServeIdleReaped()->value(), reaped_before + 1);
}

TEST(EpollLoopbackTest, MidRequestStallGets408) {
  EpollServer::Options options;
  options.read_timeout_ms = 150;
  EpollLoopback fixture(options);
  const uint64_t timeouts_before = NetRequestTimeouts()->value();

  auto connection = ClientConnection::Connect("127.0.0.1", fixture.port());
  ASSERT_TRUE(connection.ok());
  ClientConnection client = std::move(connection).value();
  // Half a request, then silence: the client's fault, said explicitly.
  ASSERT_TRUE(client.SendRaw("POST /v1/summarize HTTP/1.1\r\nConte").ok());
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 408);
  EXPECT_GE(NetRequestTimeouts()->value(), timeouts_before + 1);
}

TEST(EpollLoopbackTest, ManyConcurrentKeepAliveClients) {
  EpollServer::Options options;
  options.max_inflight = 256;
  EpollLoopback fixture(options);
  // Warm the cache so every client's summarize is a fast hit.
  ASSERT_EQ(fixture.Post("/v1/summarize", kSummarizeBody).value().status, 200);

  constexpr int kClients = 16;
  constexpr int kExchanges = 8;
  std::vector<int> failures(kClients, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&fixture, &failures, i] {
      auto connection =
          ClientConnection::Connect("127.0.0.1", fixture.port(), 30000);
      if (!connection.ok()) {
        failures[i] = kExchanges;
        return;
      }
      ClientConnection client = std::move(connection).value();
      for (int j = 0; j < kExchanges; ++j) {
        const bool post = (i + j) % 2 == 0;
        Status sent = post ? client.SendRequest("POST", "/v1/summarize",
                                                kSummarizeBody)
                           : client.SendRequest("GET", "/healthz");
        if (!sent.ok()) {
          ++failures[i];
          continue;
        }
        auto response = client.ReadResponse();
        if (!response.ok() || response.value().status != 200) ++failures[i];
      }
      client.Close();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int i = 0; i < kClients; ++i) EXPECT_EQ(failures[i], 0) << i;
}

TEST(EpollLoopbackTest, StopDrainsAndRefusesNewWork) {
  EpollLoopback fixture;
  ASSERT_EQ(fixture.Get("/healthz").value().status, 200);

  // An idle keep-alive connection at Stop() time is closed by the drain,
  // not left hanging.
  auto idle = ClientConnection::Connect("127.0.0.1", fixture.port());
  ASSERT_TRUE(idle.ok());
  ClientConnection idle_client = std::move(idle).value();
  ASSERT_TRUE(idle_client.SendRequest("GET", "/healthz").ok());
  ASSERT_EQ(idle_client.ReadResponse().value().status, 200);

  fixture.server().Stop();
  EXPECT_FALSE(fixture.server().running());
  EXPECT_FALSE(idle_client.ReadResponse().ok());  // closed by the drain

  auto after = ClientConnection::Connect("127.0.0.1", fixture.port(),
                                         /*timeout_ms=*/500);
  EXPECT_FALSE(after.ok());
  fixture.server().Stop();  // idempotent
}

TEST(EpollLoopbackTest, PeerAbortMidHandlerKeepsSlotAndStopIsClean) {
  // Regression for a shutdown use-after-free: a peer RST while the
  // handler runs delivers EPOLLERR (always reported, even at interest
  // mask 0), closing the connection while the handler-pool task still
  // holds the Shard pointer. Stop() must join the handler pool before
  // destroying the shards, and the admission slot must stay held until
  // the orphaned completion is dropped — no slot leak, no handler
  // concurrency above max_inflight.
  std::atomic<int> entered{0};
  std::atomic<bool> release{false};
  EpollServer::Options options;
  options.shards = 1;
  options.max_inflight = 1;
  EpollServer server(options, [&](const serve::HttpRequest&) {
    entered.fetch_add(1, std::memory_order_acq_rel);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return serve::HttpResponse{};
  });
  ASSERT_TRUE(server.Start().ok());

  // Raw socket so close() can send an RST (SO_LINGER, zero timeout).
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char request[] = "GET /slow HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(fd, request, sizeof(request) - 1, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(request) - 1));
  while (entered.load(std::memory_order_acquire) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  linger lin{};
  lin.l_onoff = 1;
  lin.l_linger = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lin, sizeof(lin));
  ::close(fd);  // RST

  // The aborted connection's handler still runs, so its admission slot
  // is still held: a new connection is shed with the canned 503.
  auto shed = Fetch("127.0.0.1", server.port(), "GET", "/healthz");
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed.value().status, 503);

  release.store(true, std::memory_order_release);
  // Delivering (and dropping) the orphaned completion releases the slot;
  // a fresh request then succeeds. Delivery is asynchronous — poll.
  int status = 0;
  for (int i = 0; i < 1000 && status != 200; ++i) {
    auto probe =
        Fetch("127.0.0.1", server.port(), "GET", "/healthz", "", 1000);
    if (probe.ok()) status = probe.value().status;
    if (status != 200) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  EXPECT_EQ(status, 200);

  server.Stop();  // must not touch destroyed shards (tsan covers this)
}

TEST(EpollLoopbackTest, DispatchCounterTracksHandledRequests) {
  EpollLoopback fixture;
  const uint64_t dispatched_before = NetDispatch()->value();
  ASSERT_EQ(fixture.Get("/healthz").value().status, 200);
  ASSERT_EQ(fixture.Get("/nope").value().status, 404);
  EXPECT_GE(NetDispatch()->value(), dispatched_before + 2);
}

}  // namespace
}  // namespace net
}  // namespace prox
