#include "workflow/movie_review_workflow.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "ir/agg_expr.h"

namespace prox {
namespace {

/// The Example 2.2.1 setting: three audience users reviewing "MatchPoint"
/// through one platform; U2 also reviews "BlueJasmine".
struct WorkflowFixture {
  AnnotationRegistry registry;
  MovieReviewWorkflowBuilder builder{&registry};

  WorkflowFixture() {
    builder.AddUser("1", "F", "audience");
    builder.AddUser("2", "F", "audience");
    builder.AddUser("3", "M", "audience");
  }
};

TEST(MovieReviewWorkflowTest, ProducesGuardedProvenance) {
  WorkflowFixture fx;
  // Each user has several reviews so the activity guard (> 2 reviews)
  // differs between users: U1 has 3 reviews, U2 has 2, U3 has 5.
  std::vector<RawReview> reviews = {
      {"1", "MatchPoint", 3}, {"1", "Scoop", 2},      {"1", "Zelig", 4},
      {"2", "MatchPoint", 5}, {"2", "BlueJasmine", 4},
      {"3", "MatchPoint", 3}, {"3", "Scoop", 1},      {"3", "Zelig", 2},
      {"3", "Manhattan", 4},  {"3", "Sleeper", 5}};
  fx.builder.AddPlatform("imdb", "audience", reviews);
  auto run = fx.builder.Run(AggKind::kMax);
  ASSERT_TRUE(run.ok()) << run.status();
  const ir::IrAggregateExpression* p = run.value().provenance->AsAggregate();
  ASSERT_NE(p, nullptr);

  // One tensor per review, each guarded.
  EXPECT_EQ(p->num_terms(), reviews.size());
  for (size_t i = 0; i < p->num_terms(); ++i) {
    const ir::AggTermView term = p->term(i);
    ASSERT_TRUE(term.has_guard);
    EXPECT_EQ(term.guard_op, CompareOp::kGt);
    EXPECT_EQ(term.guard_threshold, 2.0);
    EXPECT_EQ(term.mono_len, 2u);  // U_uid · Movie
  }
}

TEST(MovieReviewWorkflowTest, StatsTableAccumulates) {
  WorkflowFixture fx;
  fx.builder.AddPlatform("imdb", "audience",
                         {{"1", "MatchPoint", 3},
                          {"1", "Scoop", 5},
                          {"2", "MatchPoint", 4}});
  auto run = fx.builder.Run(AggKind::kMax);
  ASSERT_TRUE(run.ok());
  const AnnotatedTable* stats = run.value().db.Table("Stats").value();
  auto u1 = stats->Find("UID", "1");
  ASSERT_EQ(u1.size(), 1u);
  EXPECT_EQ(stats->Value(u1[0], "NumRate"), "2");
  EXPECT_EQ(stats->Value(u1[0], "MaxRate"), "5.0");
}

TEST(MovieReviewWorkflowTest, GuardEnforcesActivityThreshold) {
  // Example 2.3.1's semantics: users below the review threshold contribute
  // nothing under all-true evaluation because their guard body compares
  // NumRate ≤ 2.
  WorkflowFixture fx;
  fx.builder.AddPlatform("imdb", "audience",
                         {{"1", "MatchPoint", 5},        // U1: 1 review
                          {"2", "MatchPoint", 3},        // U2: 3 reviews
                          {"2", "Scoop", 2},
                          {"2", "Zelig", 1}});
  auto run = fx.builder.Run(AggKind::kMax);
  ASSERT_TRUE(run.ok());
  const ProvenanceExpression& p = *run.value().provenance;
  MaterializedValuation all_true(fx.registry.size());
  EvalResult r = p.Evaluate(all_true);
  AnnotationId match_point = fx.registry.Find("MatchPoint").MoveValue();
  // U1's 5 is guarded out (1 review ≤ 2); U2's 3 survives (3 > 2).
  EXPECT_EQ(r.CoordValue(match_point), 3.0);
}

TEST(MovieReviewWorkflowTest, CancellingStatsTupleKillsReview) {
  // Example 2.3.1: mapping S_i to 0 cancels the user's reviews through
  // the guard even when U_i itself is kept true.
  WorkflowFixture fx;
  fx.builder.AddPlatform("imdb", "audience",
                         {{"1", "MatchPoint", 3},
                          {"1", "Scoop", 4},
                          {"1", "Zelig", 5}});
  auto run = fx.builder.Run(AggKind::kMax);
  ASSERT_TRUE(run.ok());
  const ProvenanceExpression& p = *run.value().provenance;
  AnnotationId s1 = fx.registry.Find("S_1").MoveValue();
  AnnotationId match_point = fx.registry.Find("MatchPoint").MoveValue();

  EvalResult with_stats =
      p.Evaluate(MaterializedValuation(fx.registry.size()));
  EXPECT_EQ(with_stats.CoordValue(match_point), 3.0);

  EvalResult without_stats = p.Evaluate(
      MaterializedValuation(Valuation({s1}), fx.registry.size()));
  EXPECT_EQ(without_stats.CoordValue(match_point), 0.0);
}

TEST(MovieReviewWorkflowTest, RoleFilterDropsOtherRoles) {
  WorkflowFixture fx;
  fx.builder.AddUser("9", "M", "critic");
  fx.builder.AddPlatform("imdb", "audience",
                         {{"1", "MatchPoint", 3},
                          {"1", "Scoop", 4},
                          {"1", "Zelig", 5},
                          {"9", "MatchPoint", 1}});
  auto run = fx.builder.Run(AggKind::kMax);
  ASSERT_TRUE(run.ok());
  // The critic's review is filtered by the audience sanitizer.
  std::vector<AnnotationId> anns;
  run.value().provenance->CollectAnnotations(&anns);
  AnnotationId u9 = fx.registry.Find("U_9").MoveValue();
  EXPECT_TRUE(std::find(anns.begin(), anns.end(), u9) == anns.end());
}

TEST(MovieReviewWorkflowTest, MultiplePlatformsFeedOneAggregator) {
  WorkflowFixture fx;
  fx.builder.AddUser("9", "M", "critic");
  fx.builder.AddPlatform("imdb", "audience",
                         {{"1", "MatchPoint", 3},
                          {"1", "Scoop", 4},
                          {"1", "Zelig", 5}});
  fx.builder.AddPlatform("times", "critic",
                         {{"9", "MatchPoint", 5},
                          {"9", "Scoop", 4},
                          {"9", "Zelig", 2}});
  auto run = fx.builder.Run(AggKind::kMax);
  ASSERT_TRUE(run.ok());
  AnnotationId match_point = fx.registry.Find("MatchPoint").MoveValue();
  EvalResult r = run.value().provenance->Evaluate(
      MaterializedValuation(fx.registry.size()));
  EXPECT_EQ(r.CoordValue(match_point), 5.0);  // the critic's 5 wins

  // Movies result table materialized by the aggregator.
  const AnnotatedTable* movies = run.value().db.Table("Movies").value();
  EXPECT_EQ(movies->num_rows(), 3u);
}

TEST(MovieReviewWorkflowTest, UnknownUsersAreDropped) {
  WorkflowFixture fx;
  fx.builder.AddPlatform("imdb", "audience", {{"404", "MatchPoint", 5}});
  auto run = fx.builder.Run(AggKind::kMax);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().provenance->AsAggregate()->num_terms(), 0u);
}

TEST(MovieReviewWorkflowTest, WorkflowProvenanceIsSummarizable) {
  // The workflow output plugs straight into the provenance machinery:
  // mapping the two female users to one annotation merges their tensors.
  WorkflowFixture fx;
  fx.builder.AddPlatform("imdb", "audience",
                         {{"1", "MatchPoint", 3}, {"1", "Scoop", 4},
                          {"1", "Zelig", 5},      {"2", "MatchPoint", 5},
                          {"2", "Scoop", 2},      {"2", "Zelig", 1}});
  auto run = fx.builder.Run(AggKind::kMax);
  ASSERT_TRUE(run.ok());
  AnnotationId u1 = fx.registry.Find("U_1").MoveValue();
  AnnotationId u2 = fx.registry.Find("U_2").MoveValue();
  AnnotationId female =
      fx.registry.AddSummary(fx.registry.domain(u1), "Female");
  Homomorphism h;
  h.Set(u1, female);
  h.Set(u2, female);
  auto mapped = run.value().provenance->Apply(h);
  EXPECT_LE(mapped->Size(), run.value().provenance->Size());
  std::vector<AnnotationId> anns;
  mapped->CollectAnnotations(&anns);
  EXPECT_TRUE(std::find(anns.begin(), anns.end(), female) != anns.end());
}

}  // namespace
}  // namespace prox
