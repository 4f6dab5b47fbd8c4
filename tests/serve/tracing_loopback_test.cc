/// End-to-end tracing tests over a real loopback socket: X-Prox-Trace-Id
/// issuance and uniqueness, inbound W3C traceparent propagation, the
/// flight-recorder debug endpoint, and per-route histogram accounting.
/// Carries the `tsan` CTest label (tests/CMakeLists.txt).

#include <cctype>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "datasets/movielens.h"
#include "obs/metrics.h"
#include "engine/engine.h"
#include "net/epoll_server.h"
#include "serve/client.h"
#include "serve/router.h"

namespace prox {
namespace serve {
namespace {

constexpr char kSummarizeBody[] = "{\"w_dist\":0.7,\"max_steps\":5}";
constexpr char kInboundTraceId[] = "0123456789abcdef0123456789abcdef";

bool IsLowerHex32(std::string_view text) {
  if (text.size() != 32) return false;
  for (char c : text) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

/// One running server with debug endpoints on; ephemeral port.
class TracingServer {
 public:
  explicit TracingServer(bool debug_endpoints = true)
      : engine_(engine::Engine::FromDataset(MakeDataset(), EngineOptions())),
        router_(engine_.get(), RouterOptions(debug_endpoints)) {
    net::EpollServer::Options options;
    options.port = 0;
    options.shards = 2;
    options.handler_threads = 4;
    options.read_timeout_ms = 2000;
    server_ = std::make_unique<net::EpollServer>(
        std::move(options),
        [this](const HttpRequest& request) { return router_.Handle(request); });
    Status status = server_->Start();
    EXPECT_TRUE(status.ok()) << status.ToString();
  }

  int port() const { return server_->port(); }
  Router& router() { return router_; }

  Result<ClientResponse> Post(const std::string& target,
                              const std::string& body) {
    return Fetch("127.0.0.1", port(), "POST", target, body);
  }
  Result<ClientResponse> Get(const std::string& target) {
    return Fetch("127.0.0.1", port(), "GET", target);
  }

  /// One exchange with an explicit traceparent header (SendRequest cannot
  /// attach custom headers, so the request is written raw).
  Result<ClientResponse> PostWithTraceparent(const std::string& target,
                                             const std::string& body,
                                             const std::string& traceparent) {
    auto connection = ClientConnection::Connect("127.0.0.1", port());
    if (!connection.ok()) return connection.status();
    ClientConnection client = std::move(connection).value();
    std::string request = "POST " + target + " HTTP/1.1\r\n";
    request += "traceparent: " + traceparent + "\r\n";
    request += "content-type: application/json\r\n";
    request += "content-length: " + std::to_string(body.size()) + "\r\n";
    request += "connection: close\r\n\r\n";
    request += body;
    Status sent = client.SendRaw(request);
    if (!sent.ok()) return sent;
    return client.ReadResponse();
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
  static Router::Options RouterOptions(bool debug_endpoints) {
    Router::Options options;
    options.debug_endpoints = debug_endpoints;
    return options;
  }

  std::unique_ptr<engine::Engine> engine_;
  Router router_;
  std::unique_ptr<net::EpollServer> server_;
};

TEST(TracingLoopbackTest, EveryResponseCarriesAFreshTraceId) {
  TracingServer fixture;
  constexpr int kClients = 8;
  std::vector<std::string> trace_ids(kClients);
  std::vector<int> statuses(kClients, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&fixture, &trace_ids, &statuses, i] {
      auto response = Fetch("127.0.0.1", fixture.port(), "POST",
                            "/v1/summarize", kSummarizeBody,
                            /*timeout_ms=*/30000);
      if (response.ok()) {
        statuses[i] = response.value().status;
        trace_ids[i] = std::string(response.value().Header("x-prox-trace-id"));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::set<std::string> distinct;
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(statuses[i], 200) << "client " << i;
    EXPECT_TRUE(IsLowerHex32(trace_ids[i]))
        << "client " << i << ": '" << trace_ids[i] << "'";
    distinct.insert(trace_ids[i]);
  }
  // Ids are minted per request, never shared across concurrent clients.
  EXPECT_EQ(distinct.size(), static_cast<size_t>(kClients));
}

TEST(TracingLoopbackTest, InboundTraceparentIsHonored) {
  TracingServer fixture;
  const std::string header =
      std::string("00-") + kInboundTraceId + "-00f067aa0ba902b7-01";
  auto response =
      fixture.PostWithTraceparent("/v1/summarize", kSummarizeBody, header);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response.value().status, 200) << response.value().body;
  EXPECT_EQ(response.value().Header("x-prox-trace-id"), kInboundTraceId);
}

TEST(TracingLoopbackTest, MalformedTraceparentMintsAFreshId) {
  TracingServer fixture;
  auto response = fixture.PostWithTraceparent("/v1/summarize", kSummarizeBody,
                                              "not-a-w3c-header");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response.value().status, 200);
  std::string_view trace_id = response.value().Header("x-prox-trace-id");
  EXPECT_TRUE(IsLowerHex32(trace_id)) << "'" << trace_id << "'";
  EXPECT_NE(trace_id, kInboundTraceId);
}

TEST(TracingLoopbackTest, DebugEndpointServesTheSlowestRequestWithSpans) {
  TracingServer fixture;
  auto summarize = fixture.Post("/v1/summarize", kSummarizeBody);
  ASSERT_TRUE(summarize.ok());
  ASSERT_EQ(summarize.value().status, 200);
  const std::string summarize_trace(
      summarize.value().Header("x-prox-trace-id"));

  auto debug = fixture.Get("/v1/debug/requests");
  ASSERT_TRUE(debug.ok()) << debug.status().ToString();
  ASSERT_EQ(debug.value().status, 200) << debug.value().body;
  auto parsed = ParseJson(debug.value().body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& doc = parsed.value();
  ASSERT_NE(doc.Find("recorded_total"), nullptr);
  EXPECT_GE(doc.Find("recorded_total")->int_value(), 1);

  const JsonValue* slowest = doc.Find("slowest");
  ASSERT_NE(slowest, nullptr);
  ASSERT_FALSE(slowest->items().empty());
  // The summarize request dominates every other route by orders of
  // magnitude, so it is the slowest retained request.
  const JsonValue& top = slowest->items()[0];
  EXPECT_EQ(top.Find("path")->string_value(), "/v1/summarize");
  EXPECT_EQ(top.Find("trace_id")->string_value(), summarize_trace);
  EXPECT_EQ(top.Find("status")->int_value(), 200);
  EXPECT_GT(top.Find("latency_nanos")->int_value(), 0);
  const JsonValue* spans = top.Find("spans");
  ASSERT_NE(spans, nullptr);
  EXPECT_FALSE(spans->items().empty());
  // Every span in the tree names its operation and belongs to the trace.
  for (const JsonValue& span : spans->items()) {
    EXPECT_FALSE(span.Find("name")->string_value().empty());
    EXPECT_GE(span.Find("duration_nanos")->int_value(), 0);
  }
  const JsonValue* errors = doc.Find("errors");
  ASSERT_NE(errors, nullptr);

  // A 400 lands in the error ring.
  ASSERT_EQ(fixture.Post("/v1/summarize", "{nope").value().status, 400);
  auto after = fixture.Get("/v1/debug/requests");
  ASSERT_TRUE(after.ok());
  auto after_doc = ParseJson(after.value().body);
  ASSERT_TRUE(after_doc.ok());
  ASSERT_FALSE(after_doc.value().Find("errors")->items().empty());
  EXPECT_EQ(after_doc.value().Find("errors")->items()[0].Find("status")
                ->int_value(),
            400);
}

TEST(TracingLoopbackTest, DebugEndpointIs404WhenNotEnabled) {
  TracingServer fixture(/*debug_endpoints=*/false);
  auto debug = fixture.Get("/v1/debug/requests");
  ASSERT_TRUE(debug.ok());
  EXPECT_EQ(debug.value().status, 404);
}

TEST(TracingLoopbackTest, RouteHistogramCountsEveryServedRequest) {
  TracingServer fixture;
  const char kRouteLabels[] = "route=\"/v1/summarize\"";
  obs::MetricsSnapshot before = obs::MetricsRegistry::Default().Snapshot();
  const obs::HistogramSample* sample_before =
      before.FindHistogram("prox_serve_route_duration_nanos", kRouteLabels);
  const uint64_t count_before = sample_before ? sample_before->count : 0;

  constexpr int kRequests = 5;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_EQ(fixture.Post("/v1/summarize", kSummarizeBody).value().status,
              200);
  }

  obs::MetricsSnapshot after = obs::MetricsRegistry::Default().Snapshot();
  const obs::HistogramSample* sample =
      after.FindHistogram("prox_serve_route_duration_nanos", kRouteLabels);
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->count, count_before + kRequests);
  // The request histogram carries trace-id exemplars: at least one bucket
  // links back to a concrete request.
  bool has_exemplar = false;
  for (const std::string& trace_id : sample->exemplar_trace_ids) {
    if (!trace_id.empty()) {
      EXPECT_TRUE(IsLowerHex32(trace_id));
      has_exemplar = true;
    }
  }
  EXPECT_TRUE(has_exemplar);

  // /metrics exports the p50/p99/burn gauges for the route.
  auto metrics = fixture.Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  const std::string& text = metrics.value().body;
  EXPECT_NE(text.find("prox_serve_route_latency_p50_nanos"),
            std::string::npos);
  EXPECT_NE(text.find("prox_serve_route_latency_p99_nanos"),
            std::string::npos);
  EXPECT_NE(text.find("prox_serve_route_slo_burn_rate"), std::string::npos);
  EXPECT_NE(text.find("prox_build_info"), std::string::npos);
  EXPECT_NE(text.find("prox_uptime_seconds"), std::string::npos);
}

TEST(TracingLoopbackTest, DisabledObsSkipsTracingEntirely) {
  TracingServer fixture;
  obs::SetEnabled(false);
  auto response = fixture.Get("/healthz");
  obs::SetEnabled(true);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 200);
  // The kill switch drops the whole tracing path, header included.
  EXPECT_EQ(response.value().Header("x-prox-trace-id"), "");
}

}  // namespace
}  // namespace serve
}  // namespace prox
