/// Transport wire goldens: a fresh engine built from a deterministically
/// generated dataset, behind the epoll transport, receives a fixed
/// request sequence, and every response — status, headers, body — must
/// match tests/net/golden/transport_<family>.txt byte for byte, modulo
/// the per-request x-prox-trace-id (random by design). The goldens are
/// frozen data: they were recorded from the former blocking transport,
/// which this transport was proven byte-identical to, and no flag or
/// variable regenerates them. Run across all three dataset families
/// (MovieLens, Wikipedia, DDP), so family-specific response shapes
/// (group schemas, valuation classes) are covered.
///
/// Also the wire-level half of the torture suite: warmed idempotent
/// requests are sent whole, one byte at a time, and at seeded random
/// split points, asserting byte-identical responses regardless of how
/// the request bytes were framed.
/// Carries the `tsan` CTest label (tests/CMakeLists.txt).

#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datasets/ddp.h"
#include "datasets/movielens.h"
#include "datasets/wikipedia.h"
#include "engine/engine.h"
#include "net/epoll_server.h"
#include "serve/client.h"
#include "serve/router.h"

namespace prox {
namespace net {
namespace {

using serve::ClientConnection;
using serve::ClientResponse;

constexpr char kSummarizeBody[] = "{\"w_dist\":0.7,\"max_steps\":5}";

Dataset MakeDataset(const std::string& family) {
  if (family == "movielens") {
    MovieLensConfig config;
    config.num_users = 12;
    config.num_movies = 5;
    config.seed = 7;
    return MovieLensGenerator::Generate(config);
  }
  if (family == "wikipedia") {
    WikipediaConfig config;
    config.num_users = 10;
    config.num_pages = 6;
    config.seed = 11;
    return WikipediaGenerator::Generate(config);
  }
  DdpConfig config;
  config.num_executions = 6;
  config.seed = 13;
  return DdpGenerator::Generate(config);
}

/// A fresh engine + router behind the epoll transport. Fresh per test so
/// cache hit/miss sequences (X-Prox-Cache) line up with the golden.
class TransportFixture {
 public:
  explicit TransportFixture(const std::string& family)
      : engine_(engine::Engine::FromDataset(MakeDataset(family),
                                            EngineOptions())),
        router_(engine_.get()) {
    EpollServer::Options options;
    options.port = 0;
    options.shards = 2;
    server_ = std::make_unique<EpollServer>(
        options, [this](const serve::HttpRequest& request) {
          return router_.Handle(request);
        });
    Status status = server_->Start();
    EXPECT_TRUE(status.ok()) << status.ToString();
  }

  int port() const { return server_->port(); }

 private:
  static engine::Engine::Options EngineOptions() {
    engine::Engine::Options options;
    options.cache.max_bytes = 4 * 1024 * 1024;
    return options;
  }

  std::unique_ptr<engine::Engine> engine_;
  serve::Router router_;
  std::unique_ptr<EpollServer> server_;
};

struct Exchange {
  std::string method;
  std::string target;
  std::string body;
  /// /metrics bodies read the process-global registry, which every test
  /// in the process mutates — identity there is status + headers only.
  bool identical_body = true;
};

/// Every route, success and failure paths, with cache misses and hits at
/// fixed positions in the sequence.
std::vector<Exchange> Sequence() {
  return {
      {"GET", "/healthz", ""},
      {"POST", "/v1/summarize", kSummarizeBody},        // miss
      {"POST", "/v1/summarize", kSummarizeBody},        // hit, same bytes
      {"GET", "/v1/summary/groups", ""},
      {"POST", "/v1/select", "{\"all\":true}"},
      {"POST", "/v1/summarize", kSummarizeBody},        // same key: hit
      {"POST", "/v1/evaluate",
       "{\"assignment\":{\"false_attributes\":[{\"attribute\":\"Gender\","
       "\"value\":\"M\"}]}}"},
      {"POST", "/v1/ingest", "{\"sequence\":99}"},      // typed error, stable
      {"GET", "/v1/debug/requests", ""},                // disabled → error
      {"GET", "/nope", ""},
      {"GET", "/v1/summarize", ""},                     // 405
      {"POST", "/v1/summarize", "{nope"},               // 400
      {"GET", "/metrics", "", /*identical_body=*/false},
  };
}

/// The response as compared: trace ids are random per request, so their
/// value is masked; everything else must match byte for byte.
std::string Normalize(const ClientResponse& response, bool with_body) {
  std::string out = "status=" + std::to_string(response.status) + "\n";
  for (const auto& [name, value] : response.headers) {
    out += name + ": ";
    if (name == "x-prox-trace-id") {
      out += "<trace>";
    } else if (!with_body && name == "content-length") {
      // Excluded bodies (/metrics) differ in size too — the global
      // registry grows with whatever the process has served.
      out += "<len>";
    } else {
      out += value;
    }
    out += "\n";
  }
  if (with_body) out += "\n" + response.body;
  return out;
}

std::vector<std::string> RunSequence(int port) {
  std::vector<std::string> normalized;
  for (const Exchange& exchange : Sequence()) {
    auto response = serve::Fetch("127.0.0.1", port, exchange.method,
                                 exchange.target, exchange.body,
                                 /*timeout_ms=*/30000);
    EXPECT_TRUE(response.ok())
        << exchange.target << ": " << response.status().ToString();
    if (!response.ok()) {
      normalized.push_back("<transport failure>");
      continue;
    }
    std::string entry = Normalize(response.value(), exchange.identical_body);
    if (!exchange.identical_body) {
      // Still require success and the Prometheus content type.
      EXPECT_EQ(response.value().status, 200) << exchange.target;
    }
    normalized.push_back(std::move(entry));
  }
  return normalized;
}

/// The golden file layout: per exchange, a "### METHOD target" line,
/// the Normalize()d response, and a blank line.
std::vector<std::string> Sections(const std::vector<std::string>& wire) {
  const std::vector<Exchange> sequence = Sequence();
  std::vector<std::string> sections;
  for (size_t i = 0; i < wire.size(); ++i) {
    sections.push_back("### " + sequence[i].method + " " +
                       sequence[i].target + "\n" + wire[i] + "\n");
  }
  return sections;
}

/// Splits a golden file back into its sections (bodies are one-line
/// JSON, so "\n### " only ever starts a section).
std::vector<std::string> ReadGolden(const std::string& family) {
  const std::string path =
      std::string(PROX_NET_GOLDEN_DIR) + "/transport_" + family + ".txt";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  std::vector<std::string> sections;
  size_t start = 0;
  while (start < text.size()) {
    size_t next = text.find("\n### ", start);
    size_t end = next == std::string::npos ? text.size() : next + 1;
    sections.push_back(text.substr(start, end - start));
    start = end;
  }
  return sections;
}

class TransportIdentityTest : public ::testing::TestWithParam<std::string> {};

/// Live epoll responses against the transcript frozen from the former
/// blocking transport, exchange by exchange.
TEST_P(TransportIdentityTest, AllRoutesByteIdenticalAcrossTransports) {
  const std::string family = GetParam();
  TransportFixture fixture(family);

  std::vector<std::string> golden = ReadGolden(family);
  std::vector<std::string> wire = Sections(RunSequence(fixture.port()));

  ASSERT_EQ(golden.size(), wire.size());
  for (size_t i = 0; i < wire.size(); ++i) {
    EXPECT_EQ(golden[i], wire[i])
        << "exchange " << i << " diverged from the frozen wire golden";
  }
}

/// Wire-level torture: after warming, each idempotent request is sent
/// whole, then one byte at a time, then at 25 seeded random splits; all
/// feedings must produce byte-identical responses.
TEST_P(TransportIdentityTest, SplitFedRequestsAnswerIdenticallyOnTheWire) {
  const std::string family = GetParam();
  TransportFixture fixture(family);
  // Warm: selection + summary exist, so every request below is a pure
  // read (summarize replays as cache hits).
  ASSERT_EQ(serve::Fetch("127.0.0.1", fixture.port(), "POST",
                         "/v1/summarize", kSummarizeBody, 30000)
                .value()
                .status,
            200);

  const std::vector<std::pair<std::string, std::string>> targets = {
      {"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n", "/healthz"},
      {"POST /v1/summarize HTTP/1.1\r\nHost: t\r\n"
       "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(sizeof(kSummarizeBody) - 1) + "\r\n\r\n" +
           kSummarizeBody,
       "/v1/summarize"},
      {"GET /v1/summary/groups HTTP/1.1\r\nHost: t\r\n\r\n", "/groups"},
      {"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n", "/nope"},
  };

  std::mt19937_64 rng(20260807);
  for (const auto& [raw, label] : targets) {
    SCOPED_TRACE(label);
    std::string reference;
    // Feeding 0 = whole buffer, 1 = one byte per send, 2.. = random
    // split points.
    for (int feeding = 0; feeding < 27; ++feeding) {
      auto connection =
          ClientConnection::Connect("127.0.0.1", fixture.port(), 30000);
      ASSERT_TRUE(connection.ok()) << connection.status().ToString();
      ClientConnection client = std::move(connection).value();
      if (feeding == 0) {
        ASSERT_TRUE(client.SendRaw(raw).ok());
      } else if (feeding == 1) {
        for (char byte : raw) {
          ASSERT_TRUE(client.SendRaw(std::string_view(&byte, 1)).ok());
        }
      } else {
        size_t offset = 0;
        std::uniform_int_distribution<size_t> chunk_size(1, 13);
        while (offset < raw.size()) {
          size_t take = std::min(raw.size() - offset, chunk_size(rng));
          ASSERT_TRUE(
              client.SendRaw(std::string_view(raw).substr(offset, take))
                  .ok());
          offset += take;
        }
      }
      auto response = client.ReadResponse();
      ASSERT_TRUE(response.ok())
          << "feeding " << feeding << ": " << response.status().ToString();
      std::string normalized = Normalize(response.value(), true);
      if (feeding == 0) {
        reference = std::move(normalized);
      } else {
        ASSERT_EQ(normalized, reference) << "feeding " << feeding;
      }
      client.Close();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Families, TransportIdentityTest,
                         ::testing::Values("movielens", "wikipedia", "ddp"));

}  // namespace
}  // namespace net
}  // namespace prox
