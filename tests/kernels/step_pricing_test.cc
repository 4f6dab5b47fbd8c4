// Bit-identity of step pricing (EnumeratedDistance::PriceMerges). A greedy run
// is walked by hand: at every step each candidate merge is priced once
// through the step pricer — dirty groups only, terms carried across steps
// by the run's PricingCache — and once the old way, by building the
// candidate with Apply and calling Distance (the scalar reference, a
// kNone VAL-FUNC) and Size. Distance and size must have the same bits.
// The winner is then committed as Summarizer::Run commits it — at its
// priced distance, which must equal Distance on the committed expression —
// so later steps exercise the cross-step cache and the projected
// (group-key merged) layouts.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "datasets/movielens.h"
#include "exec/thread_pool.h"
#include "ir/adopt.h"
#include "ir/golden_run.h"
#include "ir/term_pool.h"
#include "kernels/metrics.h"
#include "obs/metrics.h"
#include "summarize/candidates.h"
#include "summarize/distance.h"
#include "summarize/val_func.h"
#include "testing/fixtures.h"

namespace prox {
namespace {

using golden::DoubleBits;
using testing_fixtures::DrawSamples;
using testing_fixtures::MovieFixture;
using testing_fixtures::ScalarReferenceValFunc;

enum class VfKind { kEuclidean, kAbsoluteDifference, kDisagreement };

struct StepCase {
  AggKind agg;
  VfKind vf;
  bool sampled;  ///< drawn valuations (SampledValuations), else the class
};

const char* VfName(VfKind vf) {
  switch (vf) {
    case VfKind::kEuclidean:
      return "Euclidean";
    case VfKind::kAbsoluteDifference:
      return "AbsoluteDifference";
    case VfKind::kDisagreement:
      return "Disagreement";
  }
  return "";
}

/// How a walk is set up.
struct Walk {
  MovieLensConfig config;
  int steps = 4;
  int arity = 2;
  bool movie_merges = true;  ///< movies (group keys) may merge
  bool any_user_merge = false;
  int num_samples = 44;  ///< drawn set: five full chunks + a short one
  bool scalar_reference = true;  ///< else the batched Distance
  bool fold_order_visible = false;  ///< MakeFoldOrderVisible the values
};

struct WalkResult {
  size_t priced = 0;        ///< candidates compared
  size_t movie_merges = 0;  ///< of which merged group keys
  uint64_t evictions = 0;
  double groups_reused = 0.0;
};

double CounterValue(const char* name) {
  return obs::MetricsRegistry::Default().Snapshot().CounterValue(name);
}

/// Replaces the dataset's row values with ones whose fold order shows in
/// the bits. MovieLens ratings are small integers, which SUM and AVG add
/// exactly in any order; these are non-integral, one row is large enough
/// (2^53 + ...) that its neighbours' adds round against it, and every
/// ninth row contributes -0.0 or +0.0, which MAX and MIN keep or replace
/// by fold order.
void MakeFoldOrderVisible(Dataset* ds) {
  const ir::IrAggregateExpression& src = *ds->provenance->AsAggregate();
  auto out = std::make_unique<ir::IrAggregateExpression>(src.agg(), src.pool());
  for (size_t i = 0; i < src.num_terms(); ++i) {
    const ir::IrAggregateExpression::InternedRow row =
        src.InternRow(i, src.pool().get());
    AggValue v = row.value;
    v.value = v.value * 0.1 + 0.013 * static_cast<double>(i % 7);
    if (i % 9 == 2) v.value = -0.0;
    if (i % 9 == 5) v.value = 0.0;
    if (i == src.num_terms() / 2) v.value = 9007199254740993.0 * 1.5;
    out->AddTermIds(row.mono, row.guard, row.group, v);
  }
  out->Canonicalize();
  ds->provenance = std::move(out);
}

WalkResult WalkAndCompare(const StepCase& c, const Walk& walk, int threads) {
  WalkResult result;
  MovieLensConfig config = walk.config;
  config.agg = c.agg;
  Dataset ds = MovieLensGenerator::Generate(config);
  if (walk.fold_order_visible) MakeFoldOrderVisible(&ds);
  const std::vector<Valuation> valuations =
      c.sampled ? DrawSamples(*ds.provenance, ds.ctx, walk.num_samples)
                : ds.valuation_class->Generate(*ds.provenance, ds.ctx);
  EuclideanValFunc euclidean;
  AbsoluteDifferenceValFunc absolute;
  DisagreementValFunc disagreement;
  const ValFunc* vf = c.vf == VfKind::kEuclidean ? &euclidean
                      : c.vf == VfKind::kAbsoluteDifference
                          ? static_cast<const ValFunc*>(&absolute)
                          : &disagreement;
  ScalarReferenceValFunc reference_vf(vf);
  EnumeratedDistance oracle(ds.provenance.get(), ds.registry.get(), vf,
                            valuations, threads);
  EnumeratedDistance reference(ds.provenance.get(), ds.registry.get(),
                               walk.scalar_reference ? &reference_vf : vf,
                               valuations, threads);

  const DomainId movie = ds.domain("movie");
  if (walk.movie_merges) {
    ds.constraints.SetRule(movie, std::make_unique<AnyMergeRule>("movies"));
  }
  if (walk.any_user_merge) {
    ds.constraints.SetRule(ds.domain("user"),
                           std::make_unique<AnyMergeRule>("users"));
  }
  CandidateGenerator generator(&ds.constraints, &ds.ctx);
  CandidateOptions candidate_options;
  candidate_options.arity = walk.arity;
  MappingState state(ds.registry.get(), ds.phi);
  std::unique_ptr<ProvenanceExpression> current =
      ir::Adopt(*ds.provenance, std::make_shared<ir::TermPool>());
  exec::PoolRef pool(threads);
  PricingCache cache;
  CandidateSet candidates;
  const double reused_before =
      CounterValue("prox_summarize_groups_reused_total");

  for (int step = 0; step < walk.steps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    generator.Generate(*current, state, candidate_options, &candidates);
    if (candidates.empty()) break;
    std::map<DomainId, AnnotationId> scratch;
    std::vector<MergeQuery> merges;
    for (const Candidate& cand : candidates) {
      if (scratch.count(cand.domain) == 0) {
        scratch[cand.domain] = ds.registry->AddSummary(cand.domain, "~scratch");
      }
      merges.push_back({candidates.roots(cand), scratch.at(cand.domain)});
    }

    const uint64_t fallbacks_before = kernels::ScalarFallbacksForTesting();
    const uint64_t batch_before = kernels::BatchEvalsForTesting();
    std::vector<MergePrice> prices;
    oracle.PriceMerges(*current, state, merges, pool.pool(), &cache, &prices);
    if (prices.size() != candidates.size()) {
      ADD_FAILURE() << "one price per merge expected";
      return result;
    }
    // Priced through the dirty-group path, never materialized, and counted
    // once per valuation per candidate like a batched Distance call.
    EXPECT_EQ(kernels::ScalarFallbacksForTesting(), fallbacks_before);
    EXPECT_EQ(kernels::BatchEvalsForTesting() - batch_before,
              valuations.size() * candidates.size());

    size_t best = 0;
    for (size_t i = 0; i < candidates.size(); ++i) {
      const std::vector<AnnotationId> roots(merges[i].roots.begin(),
                                            merges[i].roots.end());
      MappingState tentative = state;
      tentative.Merge(roots, merges[i].scratch);
      Homomorphism h;
      for (AnnotationId root : roots) {
        h.Set(root, merges[i].scratch);
      }
      const std::unique_ptr<ProvenanceExpression> expr = current->Apply(h);
      const double expected = reference.Distance(*expr, tentative);
      EXPECT_EQ(DoubleBits(prices[i].distance), DoubleBits(expected))
          << "candidate " << i << ": step pricing " << prices[i].distance
          << " vs reference " << expected;
      EXPECT_EQ(prices[i].size, expr->Size()) << "candidate " << i;
      ++result.priced;
      if (candidates[i].domain == movie) ++result.movie_merges;
      const double score = prices[i].distance +
                           static_cast<double>(prices[i].size) / 1000.0;
      const double best_score =
          prices[best].distance +
          static_cast<double>(prices[best].size) / 1000.0;
      if (score < best_score) best = i;
    }

    const Candidate& winner = candidates[best];
    const AnnotationId summary =
        ds.registry->AddSummary(winner.domain, "winner");
    const std::vector<AnnotationId> winner_roots(merges[best].roots.begin(),
                                                 merges[best].roots.end());
    state.Merge(winner_roots, summary);
    Homomorphism commit;
    for (AnnotationId root : winner_roots) commit.Set(root, summary);
    current = current->Apply(commit);
    // Summarizer::Run records the step at the winner's priced distance.
    EXPECT_EQ(DoubleBits(oracle.Distance(*current, state)),
              DoubleBits(prices[best].distance));
  }
  result.evictions = cache.evictions();
  result.groups_reused =
      CounterValue("prox_summarize_groups_reused_total") - reused_before;
  return result;
}

MovieLensConfig SmallMovieLens() {
  MovieLensConfig config;
  config.num_users = 10;
  config.num_movies = 5;
  config.ratings_per_user = 3;
  return config;
}

std::string CaseName(const ::testing::TestParamInfo<StepCase>& info) {
  return std::string(AggKindToString(info.param.agg)) + "_" +
         VfName(info.param.vf) +
         (info.param.sampled ? "_Sampled" : "_Enumerated");
}

std::vector<StepCase> AllCases() {
  std::vector<StepCase> cases;
  for (AggKind agg : {AggKind::kMax, AggKind::kMin, AggKind::kSum,
                      AggKind::kCount, AggKind::kAvg}) {
    for (VfKind vf : {VfKind::kEuclidean, VfKind::kAbsoluteDifference,
                      VfKind::kDisagreement}) {
      for (bool sampled : {false, true}) {
        cases.push_back({agg, vf, sampled});
      }
    }
  }
  return cases;
}

class StepPricingTest : public ::testing::TestWithParam<StepCase> {};

TEST_P(StepPricingTest, EveryCandidateOfEveryStepMatchesTheReference) {
  Walk walk;
  walk.config = SmallMovieLens();
  for (int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const WalkResult r = WalkAndCompare(GetParam(), walk, threads);
    EXPECT_GT(r.priced, 0u);
    EXPECT_GT(r.movie_merges, 0u);  // group-key merges were priced too
    EXPECT_GT(r.groups_reused, 0.0);  // later steps reused cached terms
  }
}

INSTANTIATE_TEST_SUITE_P(AggValFuncOracle, StepPricingTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

TEST(StepPricingWalkTest, GuardedMovieLens) {
  Walk walk;
  walk.config = SmallMovieLens();
  walk.config.with_guards = true;
  for (AggKind agg : {AggKind::kSum, AggKind::kAvg, AggKind::kMax}) {
    for (int threads : {1, 8}) {
      SCOPED_TRACE(std::string(AggKindToString(agg)) +
                   " threads=" + std::to_string(threads));
      EXPECT_GT(WalkAndCompare({agg, VfKind::kEuclidean, false}, walk, threads)
                    .priced,
                0u);
    }
  }
}

TEST(StepPricingWalkTest, ArityThreeMergesFoldCollidingRowsInSourceOrder) {
  // Three users rating the same movies: a 3-way merge makes three rows of
  // one group collide, and the merged row's value is their fold in source
  // order — observable under SUM and AVG, whose float adds do not
  // reassociate.
  Walk walk;
  walk.config = SmallMovieLens();
  walk.config.num_users = 8;
  walk.config.num_movies = 3;
  walk.arity = 3;
  walk.steps = 3;
  walk.any_user_merge = true;
  for (AggKind agg : {AggKind::kSum, AggKind::kAvg, AggKind::kCount}) {
    for (int threads : {1, 8}) {
      SCOPED_TRACE(std::string(AggKindToString(agg)) +
                   " threads=" + std::to_string(threads));
      EXPECT_GT(WalkAndCompare({agg, VfKind::kAbsoluteDifference, false}, walk,
                               threads)
                    .priced,
                0u);
    }
  }
}

Walk FoldOrderWalk() {
  // Several user merges: a summary user sorts after the movie ids, so a
  // merged row moves to the end of its group, and a later merge of that
  // summary with a raw user collides rows from the middle and the end of
  // a group while the kept rows between them fold in place.
  Walk walk;
  walk.config = SmallMovieLens();
  walk.config.num_users = 16;
  walk.config.num_movies = 3;
  walk.movie_merges = false;
  walk.any_user_merge = true;
  walk.steps = 5;
  walk.fold_order_visible = true;
  return walk;
}

TEST(StepPricingWalkTest, FoldOrderShowsInTheBits) {
  const Walk walk = FoldOrderWalk();
  for (AggKind agg :
       {AggKind::kSum, AggKind::kAvg, AggKind::kMax, AggKind::kMin}) {
    for (int threads : {1, 8}) {
      SCOPED_TRACE(std::string(AggKindToString(agg)) +
                   " threads=" + std::to_string(threads));
      EXPECT_GT(WalkAndCompare({agg, VfKind::kAbsoluteDifference, false}, walk,
                               threads)
                    .priced,
                0u);
    }
  }
}

TEST(StepPricingWalkTest, FoldsResumeFromStridedCheckpoints) {
  // Enough samples that one checkpoint per row and chunk overflows
  // kMaxCheckpointBytes: the step keeps every k-th row's fold state, and
  // a fold resumes up to k - 1 rows in front of its first changed row.
  Walk walk = FoldOrderWalk();
  walk.num_samples = 4096;
  walk.steps = 3;
  walk.scalar_reference = false;  // the batched Distance, for speed
  MovieLensConfig config = walk.config;
  const Dataset ds = MovieLensGenerator::Generate(config);
  const size_t chunks = (static_cast<size_t>(walk.num_samples) +
                         kernels::kMaxLanes - 1) /
                        kernels::kMaxLanes;
  ASSERT_GT(ds.provenance->AsAggregate()->num_terms() * chunks *
                sizeof(kernels::AggAccumulator),
            EnumeratedDistance::kMaxCheckpointBytes);
  for (AggKind agg : {AggKind::kSum, AggKind::kMax}) {
    for (int threads : {1, 8}) {
      SCOPED_TRACE(std::string(AggKindToString(agg)) +
                   " threads=" + std::to_string(threads));
      EXPECT_GT(
          WalkAndCompare({agg, VfKind::kEuclidean, true}, walk, threads).priced,
          0u);
    }
  }
}

TEST(StepPricingWalkTest, EvictedCandidatesPriceTheirGroupsAfresh) {
  // Thousands of samples make every cached group term large, so this
  // run's entries overflow the cache's byte cap: the candidates past it
  // are evicted and price all of their dirty groups at the next step.
  Walk walk;
  walk.config = SmallMovieLens();
  walk.config.num_users = 30;
  walk.config.num_movies = 4;
  walk.any_user_merge = true;
  walk.num_samples = 2048;
  walk.steps = 2;
  walk.scalar_reference = false;  // the batched Distance, for speed
  const WalkResult r =
      WalkAndCompare({AggKind::kSum, VfKind::kEuclidean, true}, walk, 1);
  EXPECT_GT(r.evictions, 0u);
  EXPECT_GT(r.priced, 800u);  // both steps, the second after evictions
}

TEST(StepPricingRowsTest, FoldResumesAtTheFirstChangedRow) {
  // U3 rates Match Point last, and U4 (registered after the movies, so it
  // sorts after them) rates Blue Jasmine last: merging them changes only
  // the last row of each group. Each fold resumes in front of that row,
  // so pricing the merge folds two rows, not the six of both groups.
  MovieFixture fx;
  const AnnotationId u4 =
      fx.registry.Add(fx.user_domain, "U4", kNoEntity).MoveValue();
  fx.AddRating(fx.u1, fx.blue_jasmine, 2);  // a second row in front of U4's
  fx.AddRating(u4, fx.blue_jasmine, 1);
  fx.Rebuild();
  std::vector<Valuation> valuations;
  for (AnnotationId a : {fx.u1, fx.u2, fx.u3, u4}) {
    valuations.emplace_back(std::vector<AnnotationId>{a});
  }
  AbsoluteDifferenceValFunc vf;
  EnumeratedDistance oracle(fx.p0.get(), &fx.registry, &vf, valuations, 1);
  const std::vector<AnnotationId> roots = {fx.u3, u4};
  const AnnotationId scratch = fx.registry.AddSummary(fx.user_domain, "~t");
  MappingState state(&fx.registry, PhiConfig{});
  PricingCache cache;
  std::vector<MergePrice> prices;
  const double refolded = CounterValue("prox_summarize_rows_refolded_total");
  const double priced = CounterValue("prox_summarize_groups_priced_total");
  oracle.PriceMerges(*fx.p0, state, {{roots, scratch}}, nullptr, &cache,
                     &prices);
  EXPECT_EQ(CounterValue("prox_summarize_groups_priced_total") - priced, 2.0);
  EXPECT_EQ(CounterValue("prox_summarize_rows_refolded_total") - refolded,
            2.0);

  MappingState tentative = state;
  tentative.Merge(roots, scratch);
  Homomorphism h;
  for (AnnotationId r : roots) h.Set(r, scratch);
  const std::unique_ptr<ProvenanceExpression> cand = fx.p0->Apply(h);
  ASSERT_EQ(prices.size(), 1u);
  EXPECT_EQ(DoubleBits(prices[0].distance),
            DoubleBits(oracle.Distance(*cand, tentative)));
  EXPECT_EQ(prices[0].size, cand->Size());
}

}  // namespace
}  // namespace prox
