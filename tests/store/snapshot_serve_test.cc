// Serving from a snapshot: a Router booted over a snapshot-loaded engine
// must answer /v1/summarize with the exact bytes a generator-booted Router
// produces, the fingerprint short-circuit must hold (snapshot datasets
// carry their identity, so DatasetFingerprint never re-serializes), and a
// persisted cache must come back warm — the first request after a restart
// is a hit, no Algorithm 1 run. Carries the `tsan` label: the warm-restart
// path is exactly the many-readers-no-interning regime the two-tier
// TermPool promises to keep race-free.

#include <gtest/gtest.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datasets/movielens.h"
#include "engine/engine.h"
#include "ir/agg_expr.h"
#include "serve/router.h"
#include "store/codec.h"
#include "store/snapshot.h"

namespace prox {
namespace store {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "prox_store_serve_" +
         std::to_string(::getpid()) + "_" + name + ".snap";
}

MovieLensConfig SmallConfig() {
  MovieLensConfig config;
  config.num_users = 16;
  config.num_movies = 5;
  config.seed = 13;
  return config;
}

serve::HttpRequest Post(const std::string& target, const std::string& body) {
  serve::HttpRequest request;
  request.method = "POST";
  request.target = target;
  request.version = "HTTP/1.1";
  request.body = body;
  return request;
}

std::string SummarizeBody(int threads) {
  return "{\"w_dist\": 0.5, \"max_steps\": 6, \"threads\": " +
         std::to_string(threads) + "}";
}

std::string HeaderValue(const serve::HttpResponse& response,
                        const std::string& name) {
  for (const auto& [key, value] : response.headers) {
    if (key == name) return value;
  }
  return "";
}

/// Boots an engine from a snapshot the way prox_server --snapshot does
/// (cache restored warm when a section is present).
std::unique_ptr<engine::Engine> BootFrom(const std::string& path) {
  engine::Engine::Options options;
  options.dataset.snapshot_path = path;
  Result<std::unique_ptr<engine::Engine>> booted =
      engine::Engine::Create(options);
  EXPECT_TRUE(booted.ok()) << booted.status().ToString();
  return booted.ok() ? booted.MoveValue() : nullptr;
}

TEST(SnapshotServeTest, SummarizeBytesMatchGeneratorBoot) {
  const std::string path = TempPath("bytes");
  {
    Dataset dataset = MovieLensGenerator::Generate(SmallConfig());
    Status s = SaveDataset(dataset, SaveOptions{}, path);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  for (const int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::unique_ptr<engine::Engine> generated = engine::Engine::FromDataset(
        MovieLensGenerator::Generate(SmallConfig()));
    serve::Router generated_router(generated.get());

    std::unique_ptr<engine::Engine> loaded = BootFrom(path);
    ASSERT_NE(loaded, nullptr);
    serve::Router loaded_router(loaded.get());

    // Same identity ⇒ same cache keys across restarts and replicas.
    EXPECT_EQ(loaded_router.dataset_fingerprint(),
              generated_router.dataset_fingerprint());

    serve::HttpResponse from_generated = generated_router.Handle(
        Post("/v1/summarize", SummarizeBody(threads)));
    serve::HttpResponse from_loaded =
        loaded_router.Handle(Post("/v1/summarize", SummarizeBody(threads)));
    ASSERT_EQ(from_generated.status, 200) << from_generated.body;
    ASSERT_EQ(from_loaded.status, 200) << from_loaded.body;
    EXPECT_EQ(HeaderValue(from_loaded, "X-Prox-Cache"), "miss");
    EXPECT_EQ(from_loaded.body, from_generated.body);
  }
}

TEST(SnapshotServeTest, SummarizeLeavesDatasetPoolUnchanged) {
  // Only ingest interns into a dataset's TermPool: a cold summarize and a
  // step replay on a snapshot-loaded dataset run on per-call pools, so the
  // dataset's pool (here borrowed from the snapshot) must not grow.
  const std::string path = TempPath("pool");
  {
    Dataset dataset = MovieLensGenerator::Generate(SmallConfig());
    Status s = SaveDataset(dataset, SaveOptions{}, path);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  std::shared_ptr<Snapshot> snapshot;
  ASSERT_TRUE(Snapshot::Open(path, &snapshot).ok());
  Dataset loaded;
  ASSERT_TRUE(LoadDataset(snapshot, LoadOptions{}, &loaded).ok());
  const auto* agg =
      dynamic_cast<const ir::IrAggregateExpression*>(loaded.provenance.get());
  ASSERT_NE(agg, nullptr);
  const std::shared_ptr<ir::TermPool> pool = agg->pool();
  const size_t monomials = pool->num_monomials();
  const size_t arena = pool->arena_size();

  std::unique_ptr<engine::Engine> engine =
      engine::Engine::FromDataset(std::move(loaded));
  engine::Engine::Response response =
      engine->HandleSummarize(SummarizeBody(1));
  ASSERT_TRUE(response.ok()) << response.body;
  Result<engine::Engine::StepSnapshot> step = engine->SummaryAtStep(1);
  ASSERT_TRUE(step.ok()) << step.status().ToString();

  EXPECT_EQ(pool->num_monomials(), monomials);
  EXPECT_EQ(pool->arena_size(), arena);
}

TEST(SnapshotServeTest, PersistedCacheServesFirstRequestWarm) {
  const std::string path = TempPath("warm");

  std::string first_body;
  {
    // "First process": generator boot, one cold summarize, then persist
    // dataset + cache the way prox_server --cache-persist does on drain.
    std::unique_ptr<engine::Engine> engine = engine::Engine::FromDataset(
        MovieLensGenerator::Generate(SmallConfig()));
    serve::Router router(engine.get());
    serve::HttpResponse response =
        router.Handle(Post("/v1/summarize", SummarizeBody(1)));
    ASSERT_EQ(response.status, 200) << response.body;
    first_body = response.body;

    ::prox::Status s = engine->PersistSnapshot(path);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  // "Restarted process": snapshot boot + cache restore. The very first
  // summarize must be a cache hit with the same bytes — no recompute.
  std::shared_ptr<Snapshot> snapshot;
  ASSERT_TRUE(Snapshot::Open(path, &snapshot).ok());
  ASSERT_TRUE(HasCacheSection(*snapshot));
  std::unique_ptr<engine::Engine> engine = BootFrom(path);
  ASSERT_NE(engine, nullptr);
  serve::Router router(engine.get());

  serve::HttpResponse response =
      router.Handle(Post("/v1/summarize", SummarizeBody(1)));
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(HeaderValue(response, "X-Prox-Cache"), "hit");
  EXPECT_EQ(response.body, first_body);
}

TEST(SnapshotServeTest, ConcurrentWarmRequestsStayConsistent) {
  // Many workers hammering a warm snapshot-booted router concurrently:
  // every response must be the same bytes (and the shared TermPool sees
  // reads only — the regime TSan checks here).
  const std::string path = TempPath("concurrent");
  std::string expected_body;
  {
    std::unique_ptr<engine::Engine> engine = engine::Engine::FromDataset(
        MovieLensGenerator::Generate(SmallConfig()));
    serve::Router router(engine.get());
    serve::HttpResponse response =
        router.Handle(Post("/v1/summarize", SummarizeBody(1)));
    ASSERT_EQ(response.status, 200);
    expected_body = response.body;
    ASSERT_TRUE(engine->PersistSnapshot(path).ok());
  }

  std::unique_ptr<engine::Engine> engine = BootFrom(path);
  ASSERT_NE(engine, nullptr);
  serve::Router router(engine.get());

  constexpr int kWorkers = 8;
  constexpr int kRequestsPerWorker = 16;
  std::vector<std::string> failures(kWorkers);
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < kRequestsPerWorker; ++i) {
        serve::HttpResponse response =
            router.Handle(Post("/v1/summarize", SummarizeBody(1)));
        if (response.status != 200 || response.body != expected_body) {
          failures[w] = "worker " + std::to_string(w) + " got status " +
                        std::to_string(response.status);
          return;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (const std::string& failure : failures) EXPECT_EQ(failure, "");
}

}  // namespace
}  // namespace store
}  // namespace prox
