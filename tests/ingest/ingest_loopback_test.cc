/// End-to-end ingest over a real loopback socket: POST /v1/ingest behind
/// Router + SummaryCache + net::EpollServer. Covers delta-aware cache
/// invalidation (miss → hit → ingest → miss → hit), fingerprint chaining
/// on /healthz, the in-call resummarize directive, typed sequence errors
/// over the wire, and summarize/ingest races. Carries the `tsan` CTest
/// label (tests/CMakeLists.txt).

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "datasets/movielens.h"
#include "ingest/delta.h"
#include "ingest/synthetic.h"
#include "engine/engine.h"
#include "net/epoll_server.h"
#include "serve/client.h"
#include "serve/router.h"

namespace prox {
namespace serve {
namespace {

constexpr char kSummarizeBody[] = "{\"w_dist\":0.7,\"max_steps\":5}";

MovieLensConfig DatasetConfig() {
  MovieLensConfig config;
  config.num_users = 12;
  config.num_movies = 5;
  config.seed = 7;
  return config;
}

/// One running server over a fresh small dataset; ephemeral port.
class LoopbackServer {
 public:
  LoopbackServer()
      : engine_(engine::Engine::FromDataset(
            MovieLensGenerator::Generate(DatasetConfig()), EngineOptions())),
        router_(engine_.get()) {
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
  engine::Engine& engine() { return *engine_; }

  Result<ClientResponse> Post(const std::string& target,
                              const std::string& body) {
    return Fetch("127.0.0.1", port(), "POST", target, body,
                 /*timeout_ms=*/30000);
  }
  Result<ClientResponse> Get(const std::string& target) {
    return Fetch("127.0.0.1", port(), "GET", target);
  }

 private:
  static engine::Engine::Options EngineOptions() {
    engine::Engine::Options options;
    options.cache.max_bytes = 4 * 1024 * 1024;
    return options;
  }

  std::unique_ptr<engine::Engine> engine_;
  Router router_;
  std::unique_ptr<net::EpollServer> server_;
};

/// A delta batch valid against the fixture's dataset, as a JSON body.
/// Built from an identically generated twin so the test never reaches
/// into the live session.
std::string DeltaBody(uint64_t sequence, int new_users = 2,
                      const char* extra_key = nullptr) {
  Dataset probe = MovieLensGenerator::Generate(DatasetConfig());
  // Earlier batches must be present before later ones can be derived.
  for (uint64_t s = 1; s < sequence; ++s) {
    Result<ingest::DeltaBatch> prior =
        ingest::SyntheticMovieLensDelta(probe, 2, 2, s);
    EXPECT_TRUE(prior.ok());
    EXPECT_TRUE(ingest::ApplyBatch(&probe, prior.value(), s).ok());
  }
  Result<ingest::DeltaBatch> batch =
      ingest::SyntheticMovieLensDelta(probe, new_users, 2, sequence);
  EXPECT_TRUE(batch.ok()) << batch.status().ToString();
  JsonValue doc = ingest::DeltaBatchToJson(batch.value());
  if (extra_key != nullptr) doc.Set(extra_key, JsonValue::Bool(true));
  return WriteJson(doc);
}

std::string HealthzFingerprint(LoopbackServer& fixture) {
  auto health = fixture.Get("/healthz");
  EXPECT_TRUE(health.ok());
  auto doc = ParseJson(health.value().body);
  EXPECT_TRUE(doc.ok());
  const JsonValue* fingerprint = doc.value().Find("dataset_fingerprint");
  EXPECT_NE(fingerprint, nullptr);
  return fingerprint->string_value();
}

TEST(IngestLoopbackTest, IngestInvalidatesCacheAndChainsFingerprint) {
  LoopbackServer fixture;
  const std::string fingerprint_before = HealthzFingerprint(fixture);

  // Prime the cache: miss, then hit.
  auto cold = fixture.Post("/v1/summarize", kSummarizeBody);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_EQ(cold.value().status, 200) << cold.value().body;
  EXPECT_EQ(cold.value().Header("x-prox-cache"), "miss");
  auto warm = fixture.Post("/v1/summarize", kSummarizeBody);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.value().Header("x-prox-cache"), "hit");

  // Ingest: the receipt carries the chained fingerprint, and /healthz
  // agrees.
  auto ingested = fixture.Post("/v1/ingest", DeltaBody(1));
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  ASSERT_EQ(ingested.value().status, 200) << ingested.value().body;
  auto receipt = ParseJson(ingested.value().body);
  ASSERT_TRUE(receipt.ok());
  const JsonValue* new_fingerprint = receipt.value().Find("fingerprint");
  ASSERT_NE(new_fingerprint, nullptr);
  EXPECT_NE(new_fingerprint->string_value(), fingerprint_before);
  EXPECT_EQ(HealthzFingerprint(fixture), new_fingerprint->string_value());
  const JsonValue* terms_added = receipt.value().Find("terms_added");
  ASSERT_NE(terms_added, nullptr);
  EXPECT_GT(terms_added->int_value(), 0);

  // Same knobs again: the old entry is unreachable under the chained
  // fingerprint — miss, then hit, and the body reflects the grown data.
  auto after = fixture.Post("/v1/summarize", kSummarizeBody);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after.value().status, 200);
  EXPECT_EQ(after.value().Header("x-prox-cache"), "miss");
  EXPECT_NE(after.value().body, cold.value().body);
  auto after_hit = fixture.Post("/v1/summarize", kSummarizeBody);
  ASSERT_TRUE(after_hit.ok());
  EXPECT_EQ(after_hit.value().Header("x-prox-cache"), "hit");
  EXPECT_EQ(after_hit.value().body, after.value().body);
}

TEST(IngestLoopbackTest, SequenceGapsAndBadBatchesSurfaceTyped) {
  LoopbackServer fixture;
  // Wrong sequence: FailedPrecondition → 409, typed kind in the message.
  auto gap = fixture.Post("/v1/ingest", DeltaBody(5));
  ASSERT_TRUE(gap.ok());
  EXPECT_EQ(gap.value().status, 409) << gap.value().body;
  EXPECT_NE(gap.value().body.find("kSequence"), std::string::npos);

  // Unknown top-level key → 400.
  auto unknown = fixture.Post("/v1/ingest", DeltaBody(1, 2, "surprise"));
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown.value().status, 400);

  // Malformed JSON → 400; GET → 405.
  auto garbage = fixture.Post("/v1/ingest", "{nope");
  ASSERT_TRUE(garbage.ok());
  EXPECT_EQ(garbage.value().status, 400);
  auto wrong_method = fixture.Get("/v1/ingest");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method.value().status, 405);

  // Nothing above touched the dataset: sequence 1 still applies cleanly.
  auto ok = fixture.Post("/v1/ingest", DeltaBody(1));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().status, 200) << ok.value().body;
}

TEST(IngestLoopbackTest, ResummarizeDirectivePrimesTheCache) {
  LoopbackServer fixture;
  // First summary (through the normal route) so the ingest resummarize
  // has a warm seed.
  ASSERT_EQ(fixture.Post("/v1/summarize", "{}").value().status, 200);

  JsonValue body_doc = ParseJson(DeltaBody(1)).MoveValue();
  body_doc.Set("resummarize", JsonValue::Bool(true));
  auto ingested = fixture.Post("/v1/ingest", WriteJson(body_doc));
  ASSERT_TRUE(ingested.ok());
  ASSERT_EQ(ingested.value().status, 200) << ingested.value().body;
  auto receipt = ParseJson(ingested.value().body);
  ASSERT_TRUE(receipt.ok());
  const JsonValue* resummarize = receipt.value().Find("resummarize");
  ASSERT_NE(resummarize, nullptr);
  const JsonValue* warm = resummarize->Find("warm");
  ASSERT_NE(warm, nullptr);
  EXPECT_TRUE(warm->bool_value());
  const JsonValue* replayed = resummarize->Find("replayed_merges");
  ASSERT_NE(replayed, nullptr);
  EXPECT_GT(replayed->int_value(), 0);

  // The directive used default knobs; a default-knob summarize now hits
  // the cache entry the ingest call primed.
  auto hit = fixture.Post("/v1/summarize", "{}");
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit.value().status, 200);
  EXPECT_EQ(hit.value().Header("x-prox-cache"), "hit");
}

TEST(IngestLoopbackTest, ConcurrentSummarizeAndIngestStaySound) {
  LoopbackServer fixture;
  ASSERT_EQ(fixture.Post("/v1/summarize", kSummarizeBody).value().status,
            200);

  // One writer streams sequenced batches while readers hammer summarize
  // and healthz. Readers must only ever see 200s; the writer must see
  // 200s (every batch is pre-sequenced against the twin).
  std::thread writer([&fixture] {
    for (uint64_t sequence = 1; sequence <= 3; ++sequence) {
      auto response = fixture.Post("/v1/ingest", DeltaBody(sequence));
      EXPECT_TRUE(response.ok());
      EXPECT_EQ(response.value().status, 200) << response.value().body;
    }
  });
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&fixture] {
      for (int j = 0; j < 6; ++j) {
        auto summary = fixture.Post("/v1/summarize", kSummarizeBody);
        EXPECT_TRUE(summary.ok());
        EXPECT_EQ(summary.value().status, 200) << summary.value().body;
        auto health = fixture.Get("/healthz");
        EXPECT_TRUE(health.ok());
        EXPECT_EQ(health.value().status, 200);
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();

  // The final state is the fully grown dataset.
  EXPECT_EQ(fixture.engine().next_ingest_sequence(), 4u);
}

}  // namespace
}  // namespace serve
}  // namespace prox
