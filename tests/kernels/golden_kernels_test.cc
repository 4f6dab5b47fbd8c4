// Golden bit-identity for the batch kernels: every SIMD tier (scalar,
// SSE4.2, AVX2 via the tier cap), at thread counts 1 and 8, must reproduce
// the frozen outcomes in tests/ir/golden/ — summary expression text,
// bit-exact distances and the /v1/summarize JSON body — on all three
// dataset families. The same binary runs a second time under PROX_SIMD=0
// (CTest target prox_kernels_golden_simd_off), proving the kill switch
// forces the scalar tier without changing a byte.

#include <gtest/gtest.h>

#include <cstdint>
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
#include "summarize/distance.h"
#include "summarize/summarizer.h"
#include "testing/fixtures.h"

namespace prox {
namespace {

using golden::ExpectMatchesGolden;
using golden::RunFamily;
using testing_fixtures::ScalarReferenceValFunc;

/// Scoped SIMD-tier cap; lifts back to the env/hardware decision on exit
/// (under the PROX_SIMD=0 CTest variant every "tier" below therefore
/// resolves to scalar — the identity assertions must still hold).
struct TierCap {
  explicit TierCap(common::SimdTier tier) { common::SetSimdTierCap(tier); }
  ~TierCap() { common::SetSimdTierCap(common::SimdTier::kAvx2); }
};

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
  // summarizer run must advance the batched-valuation counter. A distance
  // call whose cumulative homomorphism merges two movie keys (the
  // projection case) is batched as well: it advances the batch counter by
  // one per valuation and leaves the fallback counter alone. Only a
  // VAL-FUNC without a batch counterpart still reaches the scalar loop,
  // and it must agree bit for bit.
  MovieLensConfig config;
  config.num_users = 12;
  config.num_movies = 4;
  config.ratings_per_user = 3;

  const uint64_t batch_before = kernels::BatchEvalsForTesting();
  RunFamily<MovieLensGenerator>(config, /*threads=*/1);
  EXPECT_GT(kernels::BatchEvalsForTesting(), batch_before);

  Dataset ds = MovieLensGenerator::Generate(config);
  std::vector<Valuation> valuations =
      ds.valuation_class->Generate(*ds.provenance, ds.ctx);
  EnumeratedDistance oracle(ds.provenance.get(), ds.registry.get(),
                            ds.val_func.get(), valuations, 1);
  ScalarReferenceValFunc scalar_vf(ds.val_func.get());
  EnumeratedDistance scalar_oracle(ds.provenance.get(), ds.registry.get(),
                                   &scalar_vf, valuations, 1);
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
  const uint64_t fallback_before = kernels::ScalarFallbacksForTesting();
  const double batched = oracle.Distance(*cand, state);
  EXPECT_EQ(kernels::BatchEvalsForTesting(), batch_after + valuations.size());
  EXPECT_EQ(kernels::ScalarFallbacksForTesting(), fallback_before);

  const double reference = scalar_oracle.Distance(*cand, state);
  EXPECT_EQ(kernels::ScalarFallbacksForTesting(), fallback_before + 1);
  EXPECT_EQ(kernels::BatchEvalsForTesting(), batch_after + valuations.size());
  EXPECT_EQ(golden::DoubleBits(batched), golden::DoubleBits(reference));
}

TEST(GoldenKernelsTest, SampledOracleBitIdenticalAcrossTiers) {
  // The Monte-Carlo oracle regenerates each sample from (seed, index), so
  // distances are comparable across runs; they must be bit-identical
  // across tiers and thread counts too.
  MovieLensConfig config;
  config.num_users = 14;
  config.num_movies = 5;
  Dataset ds = MovieLensGenerator::Generate(config);
  // A per-test copy of p₀ as the candidate: it has a batch lowering, so
  // the batched path genuinely engages.
  auto pool = std::make_shared<ir::TermPool>();
  auto cand = ir::Adopt(*ds.provenance, pool);

  auto distance_at = [&](common::SimdTier tier, int threads) {
    TierCap cap(tier);
    SampledDistance::Options options;
    options.num_samples = 160;  // 10 grain-16 chunks
    options.threads = threads;
    SampledDistance oracle(ds.provenance.get(), ds.registry.get(),
                           ds.val_func.get(), options);
    MappingState state(ds.registry.get(), ds.phi);
    return oracle.Distance(*cand, state);
  };

  const double reference = distance_at(common::SimdTier::kScalar, 1);
  EXPECT_EQ(distance_at(common::SimdTier::kSse42, 1), reference);
  EXPECT_EQ(distance_at(common::SimdTier::kAvx2, 1), reference);
  EXPECT_EQ(distance_at(common::SimdTier::kAvx2, 8), reference);
  EXPECT_EQ(distance_at(common::SimdTier::kScalar, 8), reference);
}

}  // namespace
}  // namespace prox
