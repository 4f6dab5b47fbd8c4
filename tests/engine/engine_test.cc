/// The transport-agnostic facade (docs/EMBEDDING.md): JSON handlers
/// return the exact bytes the wire has always carried (newline-terminated
/// documents, typed error mapping, cache hit/miss outcomes), the typed
/// facade hands back value snapshots, and dataset boot specs are
/// reproducible across processes.

#include "engine/engine.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/json.h"
#include "datasets/ddp.h"
#include "datasets/movielens.h"
#include "datasets/wikipedia.h"
#include "engine/codec.h"
#include "engine/engine_metrics.h"
#include "ingest/delta.h"
#include "ingest/synthetic.h"
#include "kernels/metrics.h"
#include "obs/metrics.h"

namespace prox {
namespace engine {
namespace {

constexpr char kSummarizeBody[] = "{\"w_dist\":0.7,\"max_steps\":5}";

Dataset SmallDataset() {
  MovieLensConfig config;
  config.num_users = 12;
  config.num_movies = 5;
  config.seed = 7;
  return MovieLensGenerator::Generate(config);
}

JsonValue MustParse(const std::string& text) {
  auto parsed = ParseJson(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.ok() ? parsed.value() : JsonValue::Null();
}

TEST(EngineTest, SummarizeMissThenHitIsByteIdentical) {
  std::unique_ptr<Engine> engine = Engine::FromDataset(SmallDataset());
  Engine::Response cold = engine->HandleSummarize(kSummarizeBody);
  ASSERT_TRUE(cold.ok()) << cold.status.ToString();
  EXPECT_EQ(cold.http_status, 200);
  EXPECT_EQ(cold.cache, Engine::Response::CacheOutcome::kMiss);
  ASSERT_FALSE(cold.body.empty());
  EXPECT_EQ(cold.body.back(), '\n');

  Engine::Response warm = engine->HandleSummarize(kSummarizeBody);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.cache, Engine::Response::CacheOutcome::kHit);
  EXPECT_EQ(warm.body, cold.body);

  JsonValue doc = MustParse(cold.body);
  EXPECT_NE(doc.Find("final_size"), nullptr);
  EXPECT_NE(doc.Find("groups"), nullptr);
}

TEST(EngineTest, TypedErrorsRenderTheCanonicalDocument) {
  std::unique_ptr<Engine> engine = Engine::FromDataset(SmallDataset());

  Engine::Response malformed = engine->HandleSummarize("{nope");
  EXPECT_FALSE(malformed.ok());
  EXPECT_EQ(malformed.http_status, 400);
  EXPECT_EQ(malformed.cache, Engine::Response::CacheOutcome::kNone);
  JsonValue error_doc = MustParse(malformed.body);
  ASSERT_NE(error_doc.Find("error"), nullptr);
  // The body is exactly the rendered StatusToJson document.
  std::string expected = WriteJson(StatusToJson(malformed.status));
  expected.push_back('\n');
  EXPECT_EQ(malformed.body, expected);

  Engine::Response unknown_field = engine->HandleSelect("{\"bogus\":1}");
  EXPECT_EQ(unknown_field.http_status, 400);
  EXPECT_EQ(unknown_field.status.code(), StatusCode::kInvalidArgument);

  // Groups before any summarize: FailedPrecondition → 409.
  Engine::Response no_summary = engine->HandleGroups();
  EXPECT_EQ(no_summary.http_status, 409);
  EXPECT_EQ(no_summary.status.code(), StatusCode::kFailedPrecondition);
}

TEST(EngineTest, SelectNarrowsTheCacheKeyAndReportsTheSelection) {
  std::unique_ptr<Engine> engine = Engine::FromDataset(SmallDataset());
  Engine::Response all = engine->HandleSelect("{\"all\":true}");
  ASSERT_TRUE(all.ok()) << all.body;
  JsonValue all_doc = MustParse(all.body);
  ASSERT_NE(all_doc.Find("selection_key"), nullptr);
  EXPECT_EQ(all_doc.Find("selection_key")->string_value(), SelectAllKey());

  Engine::Response cold_all = engine->HandleSummarize(kSummarizeBody);
  ASSERT_TRUE(cold_all.ok());
  EXPECT_EQ(cold_all.cache, Engine::Response::CacheOutcome::kMiss);

  // A different selection must not hit the "all" entry.
  // Every generated title carries its "(year)" suffix, so this matches a
  // non-empty selection while keying differently from "all".
  Engine::Response narrowed =
      engine->HandleSelect("{\"title_substring\":\"(\"}");
  ASSERT_TRUE(narrowed.ok()) << narrowed.body;
  Engine::Response cold_narrow = engine->HandleSummarize(kSummarizeBody);
  ASSERT_TRUE(cold_narrow.ok());
  EXPECT_EQ(cold_narrow.cache, Engine::Response::CacheOutcome::kMiss);

  // Re-selecting all restores the original entry: hit, same bytes.
  ASSERT_TRUE(engine->HandleSelect("{\"all\":true}").ok());
  Engine::Response warm_all = engine->HandleSummarize(kSummarizeBody);
  ASSERT_TRUE(warm_all.ok());
  EXPECT_EQ(warm_all.cache, Engine::Response::CacheOutcome::kHit);
  EXPECT_EQ(warm_all.body, cold_all.body);
}

/// Ingest resets the selection: the grown provenance replaces a narrower
/// /v1/select wholesale (docs/SERVING.md, docs/INGEST.md), so the next
/// summarize keys and answers exactly as select-all does.
TEST(EngineTest, IngestResetsTheSelectionToSelectAll) {
  const Dataset reference = SmallDataset();
  const std::string title = reference.registry->name(
      reference.registry->AnnotationsInDomain(reference.domain("movie"))
          .front());
  Result<ingest::DeltaBatch> delta =
      ingest::SyntheticMovieLensDelta(reference, 1, 2, 1);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  const std::string ingest_body =
      WriteJson(ingest::DeltaBatchToJson(delta.value()));

  std::unique_ptr<Engine> whole = Engine::FromDataset(SmallDataset());
  Engine::Response all = whole->HandleSelect("{\"all\":true}");
  ASSERT_TRUE(all.ok()) << all.body;

  // Narrow to one title, then ingest.
  std::unique_ptr<Engine> narrowed = Engine::FromDataset(SmallDataset());
  JsonValue titles = JsonValue::Array();
  titles.Append(JsonValue::Str(title));
  JsonValue select = JsonValue::Object();
  select.Set("titles", std::move(titles));
  Engine::Response selected = narrowed->HandleSelect(WriteJson(select));
  ASSERT_TRUE(selected.ok()) << selected.body;
  JsonValue selected_doc = MustParse(selected.body);
  EXPECT_NE(selected_doc.Find("selection_key")->string_value(),
            SelectAllKey());
  EXPECT_LT(selected_doc.Find("selected_size")->int_value(),
            MustParse(all.body).Find("selected_size")->int_value());
  Engine::Response ingested = narrowed->HandleIngest(ingest_body);
  ASSERT_TRUE(ingested.ok()) << ingested.body;
  Engine::Response after = narrowed->HandleSummarize(kSummarizeBody);
  ASSERT_TRUE(after.ok()) << after.body;
  EXPECT_EQ(after.cache, Engine::Response::CacheOutcome::kMiss);

  // Keyed as select-all: re-selecting all hits those exact bytes.
  ASSERT_TRUE(narrowed->HandleSelect("{\"all\":true}").ok());
  Engine::Response reselected = narrowed->HandleSummarize(kSummarizeBody);
  ASSERT_TRUE(reselected.ok());
  EXPECT_EQ(reselected.cache, Engine::Response::CacheOutcome::kHit);
  EXPECT_EQ(reselected.body, after.body);

  // Answered as select-all: an engine that never narrowed agrees byte for
  // byte.
  ASSERT_TRUE(whole->HandleIngest(ingest_body).ok());
  Engine::Response expected = whole->HandleSummarize(kSummarizeBody);
  ASSERT_TRUE(expected.ok()) << expected.body;
  EXPECT_EQ(after.body, expected.body);
}

TEST(EngineTest, TypedFacadeMatchesTheJsonApiBytes) {
  std::unique_ptr<Engine> json_engine = Engine::FromDataset(SmallDataset());
  std::unique_ptr<Engine> typed_engine = Engine::FromDataset(SmallDataset());

  Engine::Response via_json = json_engine->HandleSummarize(kSummarizeBody);
  ASSERT_TRUE(via_json.ok()) << via_json.body;

  Result<SummarizationRequest> request =
      SummarizationRequestFromJson(MustParse(kSummarizeBody));
  ASSERT_TRUE(request.ok());
  Result<Engine::SummarizeOutcome> outcome =
      typed_engine->Summarize(request.value());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome.value().body, via_json.body);
  EXPECT_GT(outcome.value().final_size, 0);

  // The other typed views agree with the summarize document.
  JsonValue doc = MustParse(via_json.body);
  EXPECT_EQ(doc.Find("final_size")->int_value(),
            outcome.value().final_size);
  EXPECT_FALSE(typed_engine->DescribeGroups().empty());
  EXPECT_TRUE(typed_engine->SummaryExpression().ok());
  EXPECT_TRUE(typed_engine->SerializedSummary().ok());
  Result<Engine::StepSnapshot> step = typed_engine->SummaryAtStep(0);
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  EXPECT_GT(step.value().size, 0);
}

/// Cached reads copy the published serving key instead of taking the
/// engine mutex, so neither a summarize hit nor fingerprint() (all that
/// /healthz reads) waits for a cold Algorithm 1 run in flight.
TEST(EngineTest, CachedReadsDoNotWaitForAColdRun) {
  // Large enough that a Release cold run takes well over 200 ms.
  MovieLensConfig config;
  config.num_users = 100;
  config.num_movies = 12;
  config.seed = 7;
  std::unique_ptr<Engine> engine =
      Engine::FromDataset(MovieLensGenerator::Generate(config));

  constexpr char kPrimedBody[] = "{\"w_dist\":0.5,\"max_steps\":1}";
  constexpr char kColdBody[] = "{\"w_dist\":0.5,\"max_steps\":32}";
  Engine::Response primed = engine->HandleSummarize(kPrimedBody);
  ASSERT_TRUE(primed.ok()) << primed.body;
  ASSERT_EQ(primed.cache, Engine::Response::CacheOutcome::kMiss);
  Engine::Response uncontended = engine->HandleSummarize(kPrimedBody);
  ASSERT_EQ(uncontended.cache, Engine::Response::CacheOutcome::kHit);
  const std::string fingerprint = engine->fingerprint();

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  const obs::Counter* steps = registry.GetCounter(
      "prox_summarize_steps_total", "Greedy steps committed across all runs.");
  const obs::Histogram* lock_wait = EngineLockWait();
  const uint64_t steps_before = steps->value();

  std::atomic<bool> done{false};
  Engine::Response cold;
  std::jthread writer([&] {
    cold = engine->HandleSummarize(kColdBody);
    done.store(true);
  });
  // The run is in flight (and holds the engine mutex) once it commits a
  // step.
  while (steps->value() == steps_before && !done.load()) {
    std::this_thread::yield();
  }
  ASSERT_FALSE(done.load()) << "the cold run ended before a step was seen";

  const uint64_t lock_waits_before = lock_wait->count();
  for (int i = 0; i < 20; ++i) {
    Engine::Response hit = engine->HandleSummarize(kPrimedBody);
    EXPECT_EQ(hit.cache, Engine::Response::CacheOutcome::kHit);
    EXPECT_EQ(hit.body, uncontended.body);
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(engine->fingerprint(), fingerprint);
  }
  // Reads that waited for the engine mutex would return only once the run
  // had committed its last step.
  const uint64_t steps_at_reads = steps->value();
  EXPECT_FALSE(done.load()) << "cached reads waited for the cold run";
  // Neither read path takes the engine mutex.
  EXPECT_EQ(lock_wait->count(), lock_waits_before);

  writer.join();
  ASSERT_TRUE(cold.ok()) << cold.body;
  EXPECT_EQ(cold.cache, Engine::Response::CacheOutcome::kMiss);
  EXPECT_LT(steps_at_reads, steps->value())
      << "the cold run committed no step after the cached reads returned";
}

TEST(EngineTest, StepAndSerializeBeforeSummarizeFailClosed) {
  std::unique_ptr<Engine> engine = Engine::FromDataset(SmallDataset());
  EXPECT_EQ(engine->SummaryAtStep(0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine->SerializedSummary().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine->SummaryAtStep(0).status().message(),
            "no summary computed yet");
}

TEST(EngineTest, CreateSpecsAreReproducibleAcrossEngines) {
  // Two engines booted from the same spec must agree on identity and on
  // summarize bytes — the property the C ABI round-trip relies on.
  Engine::Options options;
  options.dataset.family = DatasetSpec::Family::kMovieLens;
  Result<std::unique_ptr<Engine>> first = Engine::Create(options);
  Result<std::unique_ptr<Engine>> second = Engine::Create(options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value()->fingerprint(), second.value()->fingerprint());
  Engine::Response a = first.value()->HandleSummarize(kSummarizeBody);
  Engine::Response b = second.value()->HandleSummarize(kSummarizeBody);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.body, b.body);
}

TEST(EngineTest, OptionsFromJsonParsesAndRejects) {
  Result<Engine::Options> empty = Engine::OptionsFromJson("");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().dataset.family, DatasetSpec::Family::kMovieLens);

  Result<Engine::Options> full = Engine::OptionsFromJson(
      "{\"dataset\":{\"family\":\"wikipedia\",\"users\":6,\"groups\":4,"
      "\"seed\":3},\"cache_mb\":8}");
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full.value().dataset.family, DatasetSpec::Family::kWikipedia);
  EXPECT_EQ(full.value().dataset.num_users, 6);
  EXPECT_TRUE(full.value().dataset.seed_set);
  EXPECT_EQ(full.value().cache.max_bytes, 8u * 1024 * 1024);

  EXPECT_FALSE(Engine::OptionsFromJson("{\"oops\":1}").ok());
  EXPECT_FALSE(
      Engine::OptionsFromJson("{\"dataset\":{\"family\":\"netflix\"}}").ok());
  EXPECT_FALSE(Engine::OptionsFromJson("[1,2]").ok());
  EXPECT_FALSE(Engine::OptionsFromJson("{nope").ok());

  // A snapshot path that does not exist fails closed at Create.
  Result<Engine::Options> missing = Engine::OptionsFromJson(
      "{\"dataset\":{\"snapshot\":\"/nonexistent/prox.snap\"}}");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(Engine::Create(missing.value()).ok());
}

/// The dataset a default Engine::Create generates for `family` (the
/// shapes prox_server boots with), rebuilt here to derive delta batches
/// against it.
Dataset DefaultFamilyDataset(DatasetSpec::Family family) {
  switch (family) {
    case DatasetSpec::Family::kWikipedia: {
      WikipediaConfig config;
      config.num_users = 10;
      config.num_pages = 8;
      return WikipediaGenerator::Generate(config);
    }
    case DatasetSpec::Family::kDdp:
      return DdpGenerator::Generate(DdpConfig{});
    case DatasetSpec::Family::kMovieLens:
      break;
  }
  MovieLensConfig config;
  config.num_users = 25;
  config.num_movies = 8;
  config.seed = 99;
  return MovieLensGenerator::Generate(config);
}

Result<ingest::DeltaBatch> SyntheticDelta(DatasetSpec::Family family,
                                          const Dataset& dataset) {
  switch (family) {
    case DatasetSpec::Family::kWikipedia:
      return ingest::SyntheticWikipediaDelta(dataset, 1, 3, 1);
    case DatasetSpec::Family::kDdp:
      return ingest::SyntheticDdpDelta(dataset, 1, 1, 1);
    case DatasetSpec::Family::kMovieLens:
      break;
  }
  return ingest::SyntheticMovieLensDelta(dataset, 1, 2, 1);
}

/// One pricing path: every valuation the distance oracle evaluates goes
/// through the batch kernels — on a cold /v1/summarize and on the warm
/// re-summarize an ingest with the "resummarize" directive runs, for every
/// family (docs/KERNELS.md).
class NoScalarFallbackTest
    : public ::testing::TestWithParam<DatasetSpec::Family> {};

TEST_P(NoScalarFallbackTest, ColdSummarizeAndIngestResummarizeStayBatched) {
  Engine::Options options;
  options.dataset.family = GetParam();
  Result<std::unique_ptr<Engine>> created = Engine::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<Engine> engine = created.MoveValue();

  auto evals = [] {
    return obs::MetricsRegistry::Default().Snapshot().CounterValue(
        "prox_distance_enumerated_evals_total");
  };
  uint64_t batch_before = kernels::BatchEvalsForTesting();
  double evals_before = evals();
  Engine::Response cold = engine->HandleSummarize("{}");
  ASSERT_TRUE(cold.ok()) << cold.body;
  EXPECT_EQ(cold.cache, Engine::Response::CacheOutcome::kMiss);
  EXPECT_GT(kernels::BatchEvalsForTesting(), batch_before);
  EXPECT_EQ(static_cast<double>(kernels::BatchEvalsForTesting() - batch_before),
            evals() - evals_before);

  Result<ingest::DeltaBatch> delta =
      SyntheticDelta(GetParam(), DefaultFamilyDataset(GetParam()));
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  JsonValue body = ingest::DeltaBatchToJson(delta.value());
  body.Set("resummarize", JsonValue::Bool(true));
  batch_before = kernels::BatchEvalsForTesting();
  evals_before = evals();
  Engine::Response ingested = engine->HandleIngest(WriteJson(body));
  ASSERT_TRUE(ingested.ok()) << ingested.body;
  JsonValue receipt = MustParse(ingested.body);
  const JsonValue* resummarize = receipt.Find("resummarize");
  ASSERT_NE(resummarize, nullptr);
  const JsonValue* warm = resummarize->Find("warm");
  ASSERT_NE(warm, nullptr);
  EXPECT_TRUE(warm->bool_value());
  EXPECT_GT(kernels::BatchEvalsForTesting(), batch_before);
  EXPECT_EQ(static_cast<double>(kernels::BatchEvalsForTesting() - batch_before),
            evals() - evals_before);
}

INSTANTIATE_TEST_SUITE_P(
    Families, NoScalarFallbackTest,
    ::testing::Values(DatasetSpec::Family::kMovieLens,
                      DatasetSpec::Family::kWikipedia,
                      DatasetSpec::Family::kDdp),
    [](const ::testing::TestParamInfo<DatasetSpec::Family>& info) {
      switch (info.param) {
        case DatasetSpec::Family::kWikipedia:
          return std::string("Wikipedia");
        case DatasetSpec::Family::kDdp:
          return std::string("Ddp");
        case DatasetSpec::Family::kMovieLens:
          break;
      }
      return std::string("MovieLens");
    });

}  // namespace
}  // namespace engine
}  // namespace prox
