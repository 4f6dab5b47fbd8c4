// The incremental scorer must produce exactly the scores of the naive
// path (materialize + evaluate), and the summarizer with incremental
// scoring on must make identical choices.

#include "summarize/incremental.h"

#include <gtest/gtest.h>

#include "datasets/movielens.h"
#include "datasets/wikipedia.h"
#include "summarize/candidates.h"
#include "summarize/summarizer.h"
#include "summarize/val_func.h"
#include "summarize/valuation_class.h"
#include "testing/fixtures.h"

namespace prox {
namespace {

using testing_fixtures::Flat;
using testing_fixtures::MovieFixture;

TEST(IncrementalScorerTest, MatchesNaiveOnMovieFixture) {
  MovieFixture fx;
  CancelSingleAnnotation cls;
  auto valuations = cls.Generate(*fx.p0, fx.ctx);
  EuclideanValFunc vf;
  EnumeratedDistance oracle(fx.p0.get(), &fx.registry, &vf, valuations);
  MappingState state(&fx.registry, PhiConfig{});

  auto scorer = IncrementalScorer::Create(
      fx.p0.get(), &oracle, &state, IncrementalScorer::Metric::kEuclidean);
  ASSERT_NE(scorer, nullptr);

  for (auto roots : {std::vector<AnnotationId>{fx.u1, fx.u2},
                     std::vector<AnnotationId>{fx.u1, fx.u3},
                     std::vector<AnnotationId>{fx.u2, fx.u3},
                     std::vector<AnnotationId>{fx.u1, fx.u2, fx.u3}}) {
    ASSERT_TRUE(scorer->CanScore(roots));
    IncrementalScorer::Score fast = scorer->ScoreMerge(roots);

    AnnotationId tmp = fx.registry.AddSummary(fx.user_domain, "~tmp");
    MappingState tentative = state;
    tentative.Merge(roots, tmp);
    Homomorphism h;
    for (AnnotationId r : roots) h.Set(r, tmp);
    auto cand = fx.p0->Apply(h);
    EXPECT_NEAR(fast.distance, oracle.Distance(*cand, tentative), 1e-12);
    EXPECT_EQ(fast.size, cand->Size());
  }
}

TEST(IncrementalScorerTest, GroupKeyMergesAreRejected) {
  MovieFixture fx;
  CancelSingleAnnotation cls;
  auto valuations = cls.Generate(*fx.p0, fx.ctx);
  EuclideanValFunc vf;
  EnumeratedDistance oracle(fx.p0.get(), &fx.registry, &vf, valuations);
  MappingState state(&fx.registry, PhiConfig{});
  auto scorer = IncrementalScorer::Create(
      fx.p0.get(), &oracle, &state, IncrementalScorer::Metric::kEuclidean);
  ASSERT_NE(scorer, nullptr);
  EXPECT_FALSE(scorer->CanScore({fx.match_point, fx.blue_jasmine}));
}

TEST(IncrementalScorerTest, GuardedTermsHandled) {
  // Terms guarded by [S·U ⊗ n > 2]: merging users must track guard-body
  // occurrences too.
  AnnotationRegistry reg;
  DomainId users = reg.AddDomain("user");
  DomainId stats = reg.AddDomain("stats");
  DomainId movies = reg.AddDomain("movie");
  AnnotationId u1 = reg.Add(users, "U1").MoveValue();
  AnnotationId u2 = reg.Add(users, "U2").MoveValue();
  AnnotationId s1 = reg.Add(stats, "S1").MoveValue();
  AnnotationId s2 = reg.Add(stats, "S2").MoveValue();
  AnnotationId m = reg.Add(movies, "M").MoveValue();
  AggregateExpression builder(AggKind::kMax);
  for (auto [u, s, score] :
       {std::tuple{u1, s1, 3.0}, std::tuple{u2, s2, 5.0}}) {
    TensorTerm t;
    t.monomial = Monomial({u, m});
    t.guard = Guard(Monomial({s, u}), 5.0, CompareOp::kGt, 2.0);
    t.group = m;
    t.value = {score, 1};
    builder.AddTerm(std::move(t));
  }
  builder.Simplify();
  auto p0 = Flat(builder);

  SemanticContext ctx;
  ctx.registry = &reg;
  CancelSingleAnnotation cls;
  auto valuations = cls.Generate(*p0, ctx);
  EuclideanValFunc vf;
  EnumeratedDistance oracle(p0.get(), &reg, &vf, valuations);
  MappingState state(&reg, PhiConfig{});
  auto scorer = IncrementalScorer::Create(
      p0.get(), &oracle, &state, IncrementalScorer::Metric::kEuclidean);
  ASSERT_NE(scorer, nullptr);

  IncrementalScorer::Score fast = scorer->ScoreMerge({u1, u2});
  AnnotationId tmp = reg.AddSummary(users, "~tmp");
  MappingState tentative = state;
  tentative.Merge({u1, u2}, tmp);
  Homomorphism h;
  h.Set(u1, tmp);
  h.Set(u2, tmp);
  auto cand = p0->Apply(h);
  EXPECT_NEAR(fast.distance, oracle.Distance(*cand, tentative), 1e-12);
  EXPECT_EQ(fast.size, cand->Size());
}

class IncrementalDatasetTest : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalDatasetTest, AllCandidatesMatchNaiveOnMovieLens) {
  MovieLensConfig config;
  config.num_users = 14;
  config.num_movies = 6;
  config.ratings_per_user = 4;
  config.seed = GetParam();
  Dataset ds = MovieLensGenerator::Generate(config);
  auto valuations = ds.valuation_class->Generate(*ds.provenance, ds.ctx);
  EnumeratedDistance oracle(ds.provenance.get(), ds.registry.get(),
                            ds.val_func.get(), valuations);
  MappingState state(ds.registry.get(), ds.phi);
  auto scorer =
      IncrementalScorer::Create(ds.provenance.get(), &oracle, &state,
                                IncrementalScorer::Metric::kEuclidean);
  ASSERT_NE(scorer, nullptr);

  CandidateGenerator gen(&ds.constraints, &ds.ctx);
  auto candidates = gen.Generate(*ds.provenance, state, CandidateOptions{});
  ASSERT_FALSE(candidates.empty());
  int checked = 0;
  for (const Candidate& c : candidates) {
    if (!scorer->CanScore(c.roots)) continue;
    IncrementalScorer::Score fast = scorer->ScoreMerge(c.roots);
    AnnotationId tmp = ds.registry->AddSummary(c.domain, "~tmp");
    MappingState tentative = state;
    tentative.Merge(c.roots, tmp);
    Homomorphism h;
    for (AnnotationId r : c.roots) h.Set(r, tmp);
    auto cand = ds.provenance->Apply(h);
    ASSERT_NEAR(fast.distance, oracle.Distance(*cand, tentative), 1e-10);
    ASSERT_EQ(fast.size, cand->Size());
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalDatasetTest,
                         ::testing::Range(1, 5));

TEST(IncrementalSummarizerTest, SameChoicesAsNaive) {
  auto run = [](SummarizerOptions::Incremental mode) {
    MovieLensConfig config;
    config.num_users = 16;
    config.num_movies = 6;
    config.seed = 3;
    Dataset ds = MovieLensGenerator::Generate(config);
    auto valuations = ds.valuation_class->Generate(*ds.provenance, ds.ctx);
    EnumeratedDistance oracle(ds.provenance.get(), ds.registry.get(),
                              ds.val_func.get(), valuations);
    SummarizerOptions options;
    options.w_dist = 0.6;
    options.w_size = 0.4;
    options.max_steps = 6;
    options.incremental = mode;
    options.phi = ds.phi;
    Summarizer s(ds.provenance.get(), ds.registry.get(), &ds.ctx,
                 &ds.constraints, &oracle, &valuations, options);
    auto outcome = s.Run().MoveValue();
    std::vector<std::string> names;
    for (const StepRecord& step : outcome.steps) {
      names.push_back(step.summary_name);
    }
    return std::make_tuple(outcome.final_distance, outcome.final_size,
                           names);
  };
  auto naive = run(SummarizerOptions::Incremental::kOff);
  auto fast = run(SummarizerOptions::Incremental::kEuclidean);
  EXPECT_NEAR(std::get<0>(naive), std::get<0>(fast), 1e-12);
  EXPECT_EQ(std::get<1>(naive), std::get<1>(fast));
  EXPECT_EQ(std::get<2>(naive), std::get<2>(fast));
}

TEST(IncrementalScorerTest, WikipediaSumAggregationMatches) {
  WikipediaConfig config;
  config.num_users = 12;
  config.num_pages = 8;
  Dataset ds = WikipediaGenerator::Generate(config);
  auto valuations = ds.valuation_class->Generate(*ds.provenance, ds.ctx);
  EnumeratedDistance oracle(ds.provenance.get(), ds.registry.get(),
                            ds.val_func.get(), valuations);
  MappingState state(ds.registry.get(), ds.phi);
  auto scorer =
      IncrementalScorer::Create(ds.provenance.get(), &oracle, &state,
                                IncrementalScorer::Metric::kEuclidean);
  ASSERT_NE(scorer, nullptr);

  auto users = ds.registry->AnnotationsInDomain(ds.domain("wiki_user"));
  std::vector<AnnotationId> roots = {users[0], users[1]};
  ASSERT_TRUE(scorer->CanScore(roots));
  IncrementalScorer::Score fast = scorer->ScoreMerge(roots);
  AnnotationId tmp =
      ds.registry->AddSummary(ds.domain("wiki_user"), "~tmp");
  MappingState tentative = state;
  tentative.Merge(roots, tmp);
  Homomorphism h;
  h.Set(roots[0], tmp);
  h.Set(roots[1], tmp);
  auto cand = ds.provenance->Apply(h);
  EXPECT_NEAR(fast.distance, oracle.Distance(*cand, tentative), 1e-10);
  EXPECT_EQ(fast.size, cand->Size());
}

}  // namespace
}  // namespace prox
