/// End-to-end tests of the serving contract over a real loopback socket: a
/// MovieLens session behind Router + SummaryCache + net::EpollServer (the
/// transport prox_server runs), driven by serve::ClientConnection. The
/// fixture takes prox_server's knobs — handler threads, admission bound,
/// keep-alive budget — so each case checks what a prox_server client sees:
/// routes and error codes, cache identity and single-flight, /metrics,
/// parser errors, split sends and pipelining, 503 shedding, idle reaping
/// and the drain. Transport internals (408 stalls, peer aborts, dispatch
/// accounting) live in tests/net/epoll_loopback_test.cc. This suite
/// carries the `tsan` CTest label (tests/CMakeLists.txt) — run it under
/// ThreadSanitizer via scripts/tsan_exec_tests.sh builds.

#include <atomic>
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
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/router.h"
#include "serve/serve_metrics.h"

namespace prox {
namespace serve {
namespace {

using engine::SummaryCache;

constexpr char kSummarizeBody[] = "{\"w_dist\":0.7,\"max_steps\":5}";

/// One running server over a fresh small dataset; ephemeral port.
class LoopbackServer {
 public:
  explicit LoopbackServer(int max_inflight = 32, int threads = 4,
                          int idle_timeout_ms = 15000, int num_users = 12)
      : engine_(engine::Engine::FromDataset(MakeDataset(num_users),
                                            EngineOptions())),
        router_(engine_.get()) {
    net::EpollServer::Options options;
    options.port = 0;
    options.shards = 2;
    options.handler_threads = threads;
    options.max_inflight = max_inflight;
    options.read_timeout_ms = 2000;
    options.idle_timeout_ms = idle_timeout_ms;
    server_ = std::make_unique<net::EpollServer>(
        std::move(options),
        [this](const HttpRequest& request) { return router_.Handle(request); });
    Status status = server_->Start();
    EXPECT_TRUE(status.ok()) << status.ToString();
  }

  int port() const { return server_->port(); }
  SummaryCache& cache() { return engine_->cache(); }
  engine::Engine& engine() { return *engine_; }
  net::EpollServer& server() { return *server_; }

  Result<ClientResponse> Post(const std::string& target,
                              const std::string& body) {
    return Fetch("127.0.0.1", port(), "POST", target, body);
  }
  Result<ClientResponse> Get(const std::string& target) {
    return Fetch("127.0.0.1", port(), "GET", target);
  }

 private:
  static Dataset MakeDataset(int num_users) {
    MovieLensConfig config;
    config.num_users = num_users;
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
  Router router_;
  std::unique_ptr<net::EpollServer> server_;
};

TEST(ServerLoopbackTest, HealthzAndUnknownRoutes) {
  LoopbackServer fixture;
  auto health = fixture.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health.value().status, 200);
  EXPECT_NE(health.value().body.find("\"ok\""), std::string::npos);
  EXPECT_NE(health.value().body.find("dataset_fingerprint"),
            std::string::npos);

  auto missing = fixture.Get("/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status, 404);

  auto wrong_method = fixture.Get("/v1/summarize");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method.value().status, 405);
}

TEST(ServerLoopbackTest, ColdAndCachedBodiesAreByteIdentical) {
  LoopbackServer fixture;
  auto cold = fixture.Post("/v1/summarize", kSummarizeBody);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_EQ(cold.value().status, 200) << cold.value().body;
  EXPECT_EQ(cold.value().Header("x-prox-cache"), "miss");

  SummaryCache::Stats before = fixture.cache().stats();
  auto cached = fixture.Post("/v1/summarize", kSummarizeBody);
  ASSERT_TRUE(cached.ok());
  ASSERT_EQ(cached.value().status, 200);
  EXPECT_EQ(cached.value().Header("x-prox-cache"), "hit");
  EXPECT_EQ(cached.value().body, cold.value().body);
  SummaryCache::Stats after = fixture.cache().stats();
  EXPECT_EQ(after.hits, before.hits + 1);

  // The body is the canonical JSON document.
  auto parsed = ParseJson(cold.value().body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NE(parsed.value().Find("final_size"), nullptr);
  EXPECT_NE(parsed.value().Find("groups"), nullptr);
}

TEST(ServerLoopbackTest, EightConcurrentIdenticalPostsGetOneBody) {
  LoopbackServer fixture;
  constexpr int kClients = 8;
  std::vector<std::string> bodies(kClients);
  std::vector<int> statuses(kClients, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&fixture, &bodies, &statuses, i] {
      auto response = Fetch("127.0.0.1", fixture.port(), "POST",
                            "/v1/summarize", kSummarizeBody,
                            /*timeout_ms=*/30000);
      if (response.ok()) {
        statuses[i] = response.value().status;
        bodies[i] = response.value().body;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::set<std::string> distinct;
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(statuses[i], 200) << "client " << i;
    distinct.insert(bodies[i]);
  }
  // The engine single-flights identical cold requests: everyone gets the
  // same bytes (reruns would mint "#k"-suffixed summary names, so one
  // distinct body means Algorithm 1 ran exactly once) and every client
  // but the computing one ends on a cache hit. Racing fast-path lookups
  // may each record a miss, so only the lower bounds are deterministic.
  EXPECT_EQ(distinct.size(), 1u);
  SummaryCache::Stats stats = fixture.cache().stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GE(stats.misses, 1u);
  EXPECT_GE(stats.hits, static_cast<uint64_t>(kClients - 1));
}

TEST(ServerLoopbackTest, SelectChangesCacheKeyAndGroupsServe) {
  LoopbackServer fixture;
  auto first = fixture.Post("/v1/summarize", kSummarizeBody);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value().status, 200);

  // Re-select by criteria: every generated title carries its "(year)"
  // suffix, so "(" matches all of them — same provenance, but a different
  // selection key, so the same knobs must now miss the cache.
  auto select = fixture.Post("/v1/select", "{\"title_substring\":\"(\"}");
  ASSERT_TRUE(select.ok());
  ASSERT_EQ(select.value().status, 200) << select.value().body;
  EXPECT_NE(select.value().body.find("selected_size"), std::string::npos);

  auto second = fixture.Post("/v1/summarize", kSummarizeBody);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second.value().status, 200);
  EXPECT_EQ(second.value().Header("x-prox-cache"), "miss");

  auto groups = fixture.Get("/v1/summary/groups");
  ASSERT_TRUE(groups.ok());
  EXPECT_EQ(groups.value().status, 200);
  EXPECT_NE(groups.value().body.find("groups"), std::string::npos);

  auto evaluate = fixture.Post(
      "/v1/evaluate",
      "{\"assignment\":{\"false_attributes\":"
      "[{\"attribute\":\"Gender\",\"value\":\"M\"}]}}");
  ASSERT_TRUE(evaluate.ok());
  EXPECT_EQ(evaluate.value().status, 200) << evaluate.value().body;
  EXPECT_NE(evaluate.value().body.find("rows"), std::string::npos);
}

/// Reads never queue behind a cold run: while connection A's cold
/// summarize holds the engine, B's /healthz and C's cached summarize are
/// answered first, with their uncontended bytes. A select that has
/// returned is visible to the next read on any connection.
TEST(ServerLoopbackTest, ReadsAreAnsweredWhileAColdRunIsInFlight) {
  // 100 users: a cold 32-step run lasts long enough to overlap. C idles
  // while B's select waits out the run (tens of seconds under TSan), so
  // the idle budget must outlast it.
  constexpr int kTimeoutMs = 300000;
  LoopbackServer fixture(/*max_inflight=*/32, /*threads=*/4,
                         /*idle_timeout_ms=*/kTimeoutMs, /*num_users=*/100);
  constexpr char kPrimedBody[] = "{\"w_dist\":0.5,\"max_steps\":1}";
  constexpr char kColdBody[] = "{\"w_dist\":0.5,\"max_steps\":32}";
  const std::string narrow_select =
      "{\"titles\":[\"" + fixture.engine().ListTitles().front() + "\"]}";

  // Prime the same knobs under a one-title selection and under all.
  ASSERT_EQ(fixture.Post("/v1/select", narrow_select).value().status, 200);
  auto narrowed = fixture.Post("/v1/summarize", kPrimedBody);
  ASSERT_TRUE(narrowed.ok());
  ASSERT_EQ(narrowed.value().status, 200) << narrowed.value().body;
  ASSERT_EQ(fixture.Post("/v1/select", "{\"all\":true}").value().status, 200);
  ASSERT_EQ(fixture.Post("/v1/summarize", kPrimedBody).value().status, 200);
  auto uncontended = fixture.Post("/v1/summarize", kPrimedBody);
  ASSERT_TRUE(uncontended.ok());
  ASSERT_EQ(uncontended.value().Header("x-prox-cache"), "hit");
  ASSERT_NE(uncontended.value().body, narrowed.value().body);
  auto health = fixture.Get("/healthz");
  ASSERT_TRUE(health.ok());
  ASSERT_EQ(health.value().status, 200);

  auto a_conn = ClientConnection::Connect("127.0.0.1", fixture.port(),
                                          kTimeoutMs);
  auto b_conn = ClientConnection::Connect("127.0.0.1", fixture.port(),
                                          kTimeoutMs);
  auto c_conn = ClientConnection::Connect("127.0.0.1", fixture.port(),
                                          kTimeoutMs);
  ASSERT_TRUE(a_conn.ok() && b_conn.ok() && c_conn.ok());
  ClientConnection& a = a_conn.value();
  ClientConnection& b = b_conn.value();
  ClientConnection& c = c_conn.value();

  const obs::Counter* steps = obs::MetricsRegistry::Default().GetCounter(
      "prox_summarize_steps_total", "Greedy steps committed across all runs.");
  const uint64_t steps_before = steps->value();
  std::atomic<bool> a_done{false};
  Result<ClientResponse> cold = Status::Internal("no response");
  std::jthread a_thread([&] {
    if (a.SendRequest("POST", "/v1/summarize", kColdBody).ok()) {
      cold = a.ReadResponse();
    }
    a_done.store(true);
  });
  // A's run holds the engine once it commits a step.
  while (steps->value() == steps_before && !a_done.load()) {
    std::this_thread::yield();
  }
  ASSERT_FALSE(a_done.load()) << "the cold run ended before a step was seen";

  ASSERT_TRUE(b.SendRequest("GET", "/healthz").ok());
  auto b_health = b.ReadResponse();
  ASSERT_TRUE(c.SendRequest("POST", "/v1/summarize", kPrimedBody).ok());
  auto c_hit = c.ReadResponse();
  // Reads that waited for the engine would return only once the run had
  // committed its last step.
  const uint64_t steps_at_reads = steps->value();
  EXPECT_FALSE(a_done.load()) << "reads waited for the cold run";
  ASSERT_TRUE(b_health.ok()) << b_health.status().ToString();
  EXPECT_EQ(b_health.value().body, health.value().body);
  ASSERT_TRUE(c_hit.ok()) << c_hit.status().ToString();
  EXPECT_EQ(c_hit.value().Header("x-prox-cache"), "hit");
  EXPECT_EQ(c_hit.value().body, uncontended.value().body);

  // A write that has returned is what the next read keys on.
  ASSERT_TRUE(b.SendRequest("POST", "/v1/select", narrow_select).ok());
  auto b_select = b.ReadResponse();
  ASSERT_TRUE(b_select.ok()) << b_select.status().ToString();
  ASSERT_EQ(b_select.value().status, 200) << b_select.value().body;
  ASSERT_TRUE(c.SendRequest("POST", "/v1/summarize", kPrimedBody).ok());
  auto c_after = c.ReadResponse();
  ASSERT_TRUE(c_after.ok()) << c_after.status().ToString();
  EXPECT_EQ(c_after.value().Header("x-prox-cache"), "hit");
  EXPECT_EQ(c_after.value().body, narrowed.value().body);

  a_thread.join();
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold.value().status, 200) << cold.value().body;
  EXPECT_EQ(cold.value().Header("x-prox-cache"), "miss");
  EXPECT_LT(steps_at_reads, steps->value())
      << "the cold run committed no step after the reads were answered";
}

TEST(ServerLoopbackTest, ValidationAndParseErrorsAre400) {
  LoopbackServer fixture;
  // Range violation: negative weight → SummarizationRequest::Validate.
  auto invalid = fixture.Post("/v1/summarize", "{\"w_dist\":-1}");
  ASSERT_TRUE(invalid.ok());
  EXPECT_EQ(invalid.value().status, 400);
  EXPECT_NE(invalid.value().body.find("error"), std::string::npos);

  // An int knob beyond int range is a 400, not a cache hit on the value
  // it would narrow to (4294967297 -> 1).
  auto one_step = fixture.Post("/v1/summarize", "{\"max_steps\":1}");
  ASSERT_TRUE(one_step.ok());
  ASSERT_EQ(one_step.value().status, 200);
  auto wrapped = fixture.Post("/v1/summarize", "{\"max_steps\":4294967297}");
  ASSERT_TRUE(wrapped.ok());
  EXPECT_EQ(wrapped.value().status, 400);
  EXPECT_NE(wrapped.value().Header("x-prox-cache"), "hit");
  EXPECT_NE(wrapped.value().body.find("error"), std::string::npos);

  // Malformed JSON body.
  auto garbage = fixture.Post("/v1/summarize", "{nope");
  ASSERT_TRUE(garbage.ok());
  EXPECT_EQ(garbage.value().status, 400);

  // Groups before any summary exists → 409.
  LoopbackServer fresh;
  auto groups = fresh.Get("/v1/summary/groups");
  ASSERT_TRUE(groups.ok());
  EXPECT_EQ(groups.value().status, 409);
}

TEST(ServerLoopbackTest, MetricsEndpointServesPrometheusText) {
  LoopbackServer fixture;
  ASSERT_EQ(fixture.Post("/v1/summarize", kSummarizeBody).value().status,
            200);
  auto metrics = fixture.Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics.value().status, 200);
  EXPECT_NE(metrics.value().Header("content-type").find("text/plain"),
            std::string::npos);
  const std::string& text = metrics.value().body;
  EXPECT_NE(text.find("prox_serve_requests_total"), std::string::npos);
  EXPECT_NE(text.find("prox_serve_cache_hit_total"), std::string::npos);
  EXPECT_NE(text.find("prox_serve_connections_total"), std::string::npos);
  // The service-layer series flow through the same registry.
  EXPECT_NE(text.find("prox_service_requests_total"), std::string::npos);
  EXPECT_NE(text.find("# TYPE prox_serve_requests_total counter"),
            std::string::npos);
}

TEST(ServerLoopbackTest, ParserErrorsSurfaceOverTheWire) {
  LoopbackServer fixture;
  auto connection = ClientConnection::Connect("127.0.0.1", fixture.port());
  ASSERT_TRUE(connection.ok()) << connection.status().ToString();
  ClientConnection client = std::move(connection).value();
  // Oversized header block (server default limit is 16 KiB).
  ASSERT_TRUE(client
                  .SendRaw("GET / HTTP/1.1\r\nx-pad: " +
                           std::string(64 * 1024, 'a') + "\r\n\r\n")
                  .ok());
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 431);
}

TEST(ServerLoopbackTest, SplitSendsAndPipeliningWork) {
  LoopbackServer fixture;
  auto connection = ClientConnection::Connect("127.0.0.1", fixture.port());
  ASSERT_TRUE(connection.ok());
  ClientConnection client = std::move(connection).value();

  // One request dribbled across three sends.
  ASSERT_TRUE(client.SendRaw("GET /heal").ok());
  ASSERT_TRUE(client.SendRaw("thz HTT").ok());
  ASSERT_TRUE(client.SendRaw("P/1.1\r\nHost: a\r\n\r\n").ok());
  auto first = client.ReadResponse();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().status, 200);

  // Two pipelined requests in one send; responses come back in order.
  ASSERT_TRUE(client
                  .SendRaw("GET /healthz HTTP/1.1\r\n\r\n"
                           "GET /nope HTTP/1.1\r\n\r\n")
                  .ok());
  auto second = client.ReadResponse();
  auto third = client.ReadResponse();
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(second.value().status, 200);
  EXPECT_EQ(third.value().status, 404);
  client.Close();
}

TEST(ServerLoopbackTest, OverloadShedsWith503) {
  // One handler thread, one admitted connection: the second connection
  // is shed with a canned 503 while the first holds the admission slot.
  LoopbackServer fixture(/*max_inflight=*/1, /*threads=*/1);
  auto holder = ClientConnection::Connect("127.0.0.1", fixture.port());
  ASSERT_TRUE(holder.ok());
  ClientConnection held = std::move(holder).value();
  // Complete one exchange so the holder is definitely admitted (not just
  // sitting in the kernel backlog) and keeps its slot while idle.
  ASSERT_TRUE(held.SendRequest("GET", "/healthz").ok());
  auto ok = held.ReadResponse();
  ASSERT_TRUE(ok.ok());
  ASSERT_EQ(ok.value().status, 200);

  auto shed = Fetch("127.0.0.1", fixture.port(), "GET", "/healthz");
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed.value().status, 503);

  held.Close();
}

TEST(ServerLoopbackTest, IdleKeepAliveConnectionsAreReapedAndCounted) {
  // A short idle budget (and a distinct, longer read budget): a served
  // connection that then sits idle is closed from the server side and
  // counted in prox_serve_idle_reaped_total.
  LoopbackServer fixture(/*max_inflight=*/32, /*threads=*/4,
                         /*idle_timeout_ms=*/150);
  const uint64_t reaped_before = ServeIdleReaped()->value();

  auto connection = ClientConnection::Connect("127.0.0.1", fixture.port());
  ASSERT_TRUE(connection.ok());
  ClientConnection client = std::move(connection).value();
  ASSERT_TRUE(client.SendRequest("GET", "/healthz").ok());
  ASSERT_EQ(client.ReadResponse().value().status, 200);

  // No further request: the next read on this connection observes the
  // server-side close, not a 408 (no request was in flight).
  auto after = client.ReadResponse();
  EXPECT_FALSE(after.ok());
  EXPECT_GE(ServeIdleReaped()->value(), reaped_before + 1);
}

TEST(ServerLoopbackTest, StopDrainsAndRefusesNewWork) {
  LoopbackServer fixture;
  ASSERT_EQ(fixture.Get("/healthz").value().status, 200);
  fixture.server().Stop();
  EXPECT_FALSE(fixture.server().running());
  // The listener is gone: new connections fail outright.
  auto after = ClientConnection::Connect("127.0.0.1", fixture.port(),
                                         /*timeout_ms=*/500);
  EXPECT_FALSE(after.ok());
  // Idempotent.
  fixture.server().Stop();
}

}  // namespace
}  // namespace serve
}  // namespace prox
