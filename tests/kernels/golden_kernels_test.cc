// Golden bit-identity for the batch kernels: every SIMD tier (scalar,
// SSE4.2, AVX2 via the tier cap), at thread counts 1 and 8, must reproduce
// the frozen outcomes in tests/ir/golden/ — summary expression text,
// bit-exact distances and the /v1/summarize JSON body — on all three
// dataset families. The same binary runs a second time under PROX_SIMD=0
// (CTest target prox_kernels_golden_simd_off), proving the kill switch
// forces the scalar tier without changing a byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cpu_features.h"
#include "datasets/ddp.h"
#include "datasets/movielens.h"
#include "datasets/wikipedia.h"
#include "ir/adopt.h"
#include "ir/golden_run.h"
#include "ir/term_pool.h"
#include "kernels/metrics.h"
#include "obs/metrics.h"
#include "summarize/distance.h"
#include "summarize/summarizer.h"
#include "testing/fixtures.h"
#include "testing/reference_summarizer.h"

namespace prox {
namespace {

using golden::ExpectMatchesGolden;
using golden::RunFamily;
using testing_fixtures::DrawSamples;

/// Scoped SIMD-tier cap; lifts back to the env/hardware decision on exit
/// (under the PROX_SIMD=0 CTest variant every "tier" below therefore
/// resolves to scalar — the identity assertions must still hold).
struct TierCap {
  explicit TierCap(common::SimdTier tier) { common::SetSimdTierCap(tier); }
  ~TierCap() { common::SetSimdTierCap(common::SimdTier::kAvx2); }
};

/// Valuations the distance oracle has evaluated candidates under.
double EnumeratedEvals() {
  return obs::MetricsRegistry::Default().Snapshot().CounterValue(
      "prox_distance_enumerated_evals_total");
}

template <typename Generator, typename Config>
void ExpectMatchesAcrossTiers(const Config& config, const std::string& name) {
  for (common::SimdTier tier :
       {common::SimdTier::kScalar, common::SimdTier::kSse42,
        common::SimdTier::kAvx2}) {
    for (int threads : {1, 8}) {
      SCOPED_TRACE(std::string("tier=") + common::SimdTierName(tier) +
                   " threads=" + std::to_string(threads));
      TierCap cap(tier);
      ExpectMatchesGolden(RunFamily<Generator>(config, threads), name);
    }
  }
}

TEST(GoldenKernelsTest, MovieLens) {
  MovieLensConfig config;
  config.num_users = 20;
  config.num_movies = 6;
  config.ratings_per_user = 3;
  ExpectMatchesAcrossTiers<MovieLensGenerator>(config, "movielens");
}

TEST(GoldenKernelsTest, Wikipedia) {
  WikipediaConfig config;
  config.num_users = 10;
  config.num_pages = 8;
  ExpectMatchesAcrossTiers<WikipediaGenerator>(config, "wikipedia");
}

TEST(GoldenKernelsTest, Ddp) {
  DdpConfig config;
  config.num_executions = 8;
  ExpectMatchesAcrossTiers<DdpGenerator>(config, "ddp");
}

TEST(GoldenKernelsTest, BatchPathActuallyEngages) {
  // Identity is vacuous if the batch path silently never runs. A
  // summarizer run must advance the batched-valuation counter by every
  // valuation the oracle evaluated. A distance call whose cumulative
  // homomorphism merges two movie keys (the projection case) is batched as
  // well, one count per valuation, and must agree bit for bit with the
  // per-valuation spec (testing/reference_summarizer.h).
  MovieLensConfig config;
  config.num_users = 12;
  config.num_movies = 4;
  config.ratings_per_user = 3;

  const uint64_t batch_before = kernels::BatchEvalsForTesting();
  const double evals_before = EnumeratedEvals();
  RunFamily<MovieLensGenerator>(config, /*threads=*/1);
  EXPECT_GT(kernels::BatchEvalsForTesting(), batch_before);
  EXPECT_EQ(static_cast<double>(kernels::BatchEvalsForTesting() - batch_before),
            EnumeratedEvals() - evals_before);

  Dataset ds = MovieLensGenerator::Generate(config);
  std::vector<Valuation> valuations =
      ds.valuation_class->Generate(*ds.provenance, ds.ctx);
  EnumeratedDistance oracle(ds.provenance.get(), ds.registry.get(),
                            ds.val_func.get(), valuations);
  const DomainId movie = ds.domain("movie");
  const std::vector<AnnotationId> movies =
      ds.registry->AnnotationsInDomain(movie);
  ASSERT_GE(movies.size(), 2u);
  MappingState state(ds.registry.get(), ds.phi);
  state.Merge({movies[0], movies[1]},
              ds.registry->AddSummary(movie, "merged-movies"));
  auto cand = ir::Adopt(*ds.provenance, std::make_shared<ir::TermPool>())
                  ->Apply(state.cumulative());

  const uint64_t batch_after = kernels::BatchEvalsForTesting();
  const double batched = oracle.Distance(*cand, state);
  EXPECT_EQ(kernels::BatchEvalsForTesting(), batch_after + valuations.size());

  const double reference = testing_reference::ReferenceDistance(
      {ds.provenance.get(), ds.registry.get(), ds.val_func.get(),
       &valuations},
      *cand, state);
  EXPECT_EQ(golden::DoubleBits(batched), golden::DoubleBits(reference));
}

TEST(GoldenKernelsTest, SampledSetBitIdenticalAcrossTiers) {
  // The Monte-Carlo set draws each sample from (seed, index), so
  // distances over it are comparable across runs; they must be
  // bit-identical across tiers too.
  MovieLensConfig config;
  config.num_users = 14;
  config.num_movies = 5;
  Dataset ds = MovieLensGenerator::Generate(config);
  const std::vector<Valuation> drawn =
      DrawSamples(*ds.provenance, ds.ctx, 160);  // 20 grain-8 chunks
  // A per-test copy of p₀ as the candidate: it has a batch lowering, so
  // the batched path genuinely engages.
  auto pool = std::make_shared<ir::TermPool>();
  auto cand = ir::Adopt(*ds.provenance, pool);
  MappingState state(ds.registry.get(), ds.phi);
  const DomainId movie = ds.domain("movie");
  const std::vector<AnnotationId> movies =
      ds.registry->AnnotationsInDomain(movie);
  state.Merge({movies[0], movies[1]}, ds.registry->AddSummary(movie, "m"));
  cand = cand->Apply(state.cumulative());

  auto distance_at = [&](common::SimdTier tier) {
    TierCap cap(tier);
    EnumeratedDistance oracle(ds.provenance.get(), ds.registry.get(),
                              ds.val_func.get(), drawn);
    return oracle.Distance(*cand, state);
  };

  const double reference = distance_at(common::SimdTier::kScalar);
  EXPECT_GT(reference, 0.0);
  EXPECT_EQ(distance_at(common::SimdTier::kSse42), reference);
  EXPECT_EQ(distance_at(common::SimdTier::kAvx2), reference);
}

/// Relative difference |a - b| / |b| (0 when both are 0).
double RelativeDifference(double a, double b) {
  if (a == b) return 0.0;
  return std::abs(a - b) / std::abs(b);
}

TEST(GoldenKernelsTest, SampledSetMatchesTheRetiredSampledOracle) {
  // Distances the former dedicated Monte-Carlo oracle (grain-16 sample
  // chunks, p₀ re-evaluated per call) reported for the same samples. The
  // drawn set is priced in grain-8 chunks now, so a sum may differ in its
  // last bits; the samples and weights are the same, so no more than that.
  constexpr double kTolerance = 1e-12;
  double largest = 0.0;
  auto expect_near = [&](double got, double recorded, const std::string& what) {
    const double rel = RelativeDifference(got, recorded);
    largest = std::max(largest, rel);
    EXPECT_LE(rel, kTolerance) << what << ": " << got << " vs " << recorded;
  };

  {
    // The MovieLens 14x5 case at 160 samples, one candidate per merge shape.
    MovieLensConfig config;
    config.num_users = 14;
    config.num_movies = 5;
    Dataset ds = MovieLensGenerator::Generate(config);
    auto cand = ir::Adopt(*ds.provenance, std::make_shared<ir::TermPool>());
    EnumeratedDistance oracle(ds.provenance.get(), ds.registry.get(),
                              ds.val_func.get(),
                              DrawSamples(*ds.provenance, ds.ctx, 160));
    const DomainId user = ds.domain("user");
    const DomainId movie = ds.domain("movie");
    const std::vector<AnnotationId> users =
        ds.registry->AnnotationsInDomain(user);
    const std::vector<AnnotationId> movies =
        ds.registry->AnnotationsInDomain(movie);
    MappingState identity(ds.registry.get(), ds.phi);
    expect_near(oracle.Distance(*cand, identity), 0.0, "identity");
    MappingState movie_merge(ds.registry.get(), ds.phi);
    movie_merge.Merge({movies[0], movies[1]},
                      ds.registry->AddSummary(movie, "m"));
    expect_near(oracle.Distance(*cand->Apply(movie_merge.cumulative()),
                                movie_merge),
                0x1.c37dac37dac37p-6, "merge two movies");
    MappingState user_merge(ds.registry.get(), ds.phi);
    user_merge.Merge({users[0], users[1]}, ds.registry->AddSummary(user, "m"));
    expect_near(oracle.Distance(*cand->Apply(user_merge.cumulative()),
                                user_merge),
                0.0, "merge two users");
    MappingState both(ds.registry.get(), ds.phi);
    both.Merge({users[0], users[1], users[2], users[3]},
               ds.registry->AddSummary(user, "u4"));
    both.Merge({movies[2], movies[3]}, ds.registry->AddSummary(movie, "m2"));
    expect_near(oracle.Distance(*cand->Apply(both.cumulative()), both),
                0x1.41003feba953fp-5, "merge four users and two movies");
  }

  // Four-step greedy walks over a drawn set (w_dist = w_size = 0.5): each
  // committed step's distance and size.
  struct Step {
    double distance;
    int64_t size;
  };
  auto walk = [&](Dataset ds, int samples, const std::vector<Step>& recorded,
                  const std::string& name) {
    std::vector<Valuation> valuations =
        ds.valuation_class->Generate(*ds.provenance, ds.ctx);
    EnumeratedDistance oracle(ds.provenance.get(), ds.registry.get(),
                              ds.val_func.get(),
                              DrawSamples(*ds.provenance, ds.ctx, samples));
    SummarizerOptions options;
    options.w_dist = 0.5;
    options.w_size = 0.5;
    options.max_steps = 4;
    options.phi = ds.phi;
    Summarizer summarizer(ds.provenance.get(), ds.registry.get(), &ds.ctx,
                          &ds.constraints, &oracle, &valuations, options);
    const SummaryOutcome outcome = summarizer.Run().MoveValue();
    ASSERT_EQ(outcome.steps.size(), recorded.size()) << name;
    for (size_t i = 0; i < recorded.size(); ++i) {
      const std::string what = name + " step " + std::to_string(i + 1);
      expect_near(outcome.steps[i].distance, recorded[i].distance, what);
      EXPECT_EQ(outcome.steps[i].size, recorded[i].size) << what;
    }
    expect_near(outcome.final_distance, recorded.back().distance,
                name + " final");
  };
  MovieLensConfig movielens;
  movielens.num_users = 14;
  movielens.num_movies = 5;
  walk(MovieLensGenerator::Generate(movielens), 160,
       {{0x1.2913fc4d08382p-3, 84},
        {0x1.2c59d875a01c6p-3, 75},
        {0x1.2ca3221dcd9bap-3, 69},
        {0x1.2ca3221dcd9bap-3, 63}},
       "movielens");
  WikipediaConfig wikipedia;
  wikipedia.num_users = 10;
  wikipedia.num_pages = 6;
  wikipedia.edits_per_user = 3;
  wikipedia.seed = 72;
  walk(WikipediaGenerator::Generate(wikipedia), 200,
       {{0x1.b4849174ca085p-4, 36},
        {0x1.e1de669690b81p-4, 32},
        {0x1.07629af7e065ap-3, 28},
        {0x1.394bd98868d81p-3, 24}},
       "wikipedia");
  DdpConfig ddp;
  ddp.num_executions = 5;
  ddp.num_db_vars = 6;
  ddp.num_cost_vars = 5;
  ddp.seed = 73;
  walk(DdpGenerator::Generate(ddp), 200, {{0x1.70d844d013a93p-2, 6}}, "ddp");
  char largest_text[32];
  std::snprintf(largest_text, sizeof(largest_text), "%.3g", largest);
  RecordProperty("largest_relative_difference", largest_text);
}

}  // namespace
}  // namespace prox
