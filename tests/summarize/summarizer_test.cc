#include "summarize/summarizer.h"

#include <gtest/gtest.h>

#include "summarize/valuation_class.h"
#include "summarize/val_func.h"
#include "testing/fixtures.h"

namespace prox {
namespace {

using testing_fixtures::MovieFixture;

struct Harness {
  MovieFixture fx;
  std::vector<Valuation> valuations;
  EuclideanValFunc vf;
  std::unique_ptr<EnumeratedDistance> oracle;

  explicit Harness(bool attribute_valuations = false) {
    if (attribute_valuations) {
      CancelSingleAttribute cls;
      valuations = cls.Generate(*fx.p0, fx.ctx);
    } else {
      CancelSingleAnnotation cls(std::vector<DomainId>{fx.user_domain});
      valuations = cls.Generate(*fx.p0, fx.ctx);
    }
    oracle = std::make_unique<EnumeratedDistance>(fx.p0.get(), &fx.registry,
                                                  &vf, valuations);
  }

  Result<SummaryOutcome> Run(SummarizerOptions options) {
    Summarizer s(fx.p0.get(), &fx.registry, &fx.ctx, &fx.constraints,
                 oracle.get(), &valuations, options);
    return s.Run();
  }
};

TEST(SummarizerTest, Example423PicksAudienceOverFemale) {
  Harness h;
  SummarizerOptions options;
  options.w_dist = 1.0;
  options.w_size = 0.0;
  options.max_steps = 1;
  options.group_equivalent_first = false;
  auto outcome = h.Run(options);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.value().steps.size(), 1u);
  EXPECT_EQ(outcome.value().steps[0].summary_name, "Role:Audience");
  EXPECT_EQ(outcome.value().final_distance, 0.0);
  EXPECT_EQ(outcome.value().final_size, 6);  // 8 - 2 (merged tensor)
}

TEST(SummarizerTest, PureSizeWeightStillMerges) {
  Harness h;
  SummarizerOptions options;
  options.w_dist = 0.0;
  options.w_size = 1.0;
  options.max_steps = 1;
  options.group_equivalent_first = false;
  auto outcome = h.Run(options);
  ASSERT_TRUE(outcome.ok());
  // Both candidates shrink the expression; one merge must happen.
  EXPECT_EQ(outcome.value().steps.size(), 1u);
  EXPECT_LT(outcome.value().final_size, 8);
}

TEST(SummarizerTest, StopsAtTargetSize) {
  Harness h;
  SummarizerOptions options;
  options.w_dist = 1.0;
  options.w_size = 0.0;
  options.target_size = 8;  // already satisfied
  options.group_equivalent_first = false;
  auto outcome = h.Run(options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.value().steps.empty());
  EXPECT_EQ(outcome.value().final_size, 8);
}

TEST(SummarizerTest, TargetDistRollbackReturnsPreviousExpression) {
  // Restrict the constraints to Gender only, so the sole candidate is
  // {U1, U2} -> Female, whose distance is positive and overshoots the tiny
  // TARGET-DIST; Algorithm 1 line 11 must return the previous expression.
  MovieFixture fx;
  fx.constraints.SetRule(fx.user_domain, std::make_unique<SharedAttributeRule>(
                                             std::vector<AttrId>{0}));
  CancelSingleAnnotation cls(std::vector<DomainId>{fx.user_domain});
  auto valuations = cls.Generate(*fx.p0, fx.ctx);
  EuclideanValFunc vf;
  EnumeratedDistance oracle(fx.p0.get(), &fx.registry, &vf, valuations);

  SummarizerOptions options;
  options.w_dist = 1.0;
  options.w_size = 0.0;
  options.target_dist = 1e-9;
  options.group_equivalent_first = false;
  options.max_steps = 10;
  Summarizer s(fx.p0.get(), &fx.registry, &fx.ctx, &fx.constraints, &oracle,
               &valuations, options);
  auto outcome = s.Run();
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.value().rolled_back);
  EXPECT_LT(outcome.value().final_distance, 1e-9);
  EXPECT_EQ(outcome.value().final_size, fx.p0->Size());  // back to p0
  EXPECT_EQ(outcome.value().steps.size(), 1u);  // the attempted step logged
}

TEST(SummarizerTest, MaxStepsBoundsIterations) {
  Harness h(/*attribute_valuations=*/true);
  SummarizerOptions options;
  options.w_dist = 0.5;
  options.w_size = 0.5;
  options.max_steps = 1;
  options.group_equivalent_first = false;
  auto outcome = h.Run(options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_LE(outcome.value().steps.size(), 1u);
}

TEST(SummarizerTest, GroupEquivalentMergesIdenticalProfiles) {
  // Add U4 with U1's exact profile: under cancel-single-attribute
  // valuations U1 and U4 are equivalent and merged at distance 0 before
  // the greedy loop.
  MovieFixture fx;
  uint32_t row =
      fx.ctx.tables.at(fx.user_domain).AddRow({"F", "Audience"}).MoveValue();
  AnnotationId u4 = fx.registry.Add(fx.user_domain, "U4", row).MoveValue();
  fx.AddRating(u4, fx.blue_jasmine, 2);
  fx.Rebuild();

  CancelSingleAttribute cls;
  auto valuations = cls.Generate(*fx.p0, fx.ctx);
  EuclideanValFunc vf;
  EnumeratedDistance oracle(fx.p0.get(), &fx.registry, &vf, valuations);
  SummarizerOptions options;
  options.max_steps = 0;  // equivalence grouping only
  Summarizer s(fx.p0.get(), &fx.registry, &fx.ctx, &fx.constraints, &oracle,
               &valuations, options);
  auto outcome = s.Run();
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().equivalence_merges, 1);
  EXPECT_EQ(outcome.value().final_distance, 0.0);
  EXPECT_EQ(outcome.value().state.cumulative().Map(fx.u1),
            outcome.value().state.cumulative().Map(u4));
}

TEST(SummarizerTest, DeterministicAcrossRuns) {
  Harness h1(true), h2(true);
  SummarizerOptions options;
  options.w_dist = 0.7;
  options.w_size = 0.3;
  options.max_steps = 3;
  auto a = h1.Run(options);
  auto b = h2.Run(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().final_size, b.value().final_size);
  EXPECT_EQ(a.value().final_distance, b.value().final_distance);
  ASSERT_EQ(a.value().steps.size(), b.value().steps.size());
  for (size_t i = 0; i < a.value().steps.size(); ++i) {
    EXPECT_EQ(a.value().steps[i].summary_name,
              b.value().steps[i].summary_name);
  }
}

TEST(SummarizerTest, KWayMergeReducesMoreAtOnce) {
  // The future-work extension (§9): arity 3 merges three annotations per
  // step. Add U4 = (F, Audience) so a 3-subset exists.
  MovieFixture fx;
  uint32_t row =
      fx.ctx.tables.at(fx.user_domain).AddRow({"F", "Audience"}).MoveValue();
  AnnotationId u4 = fx.registry.Add(fx.user_domain, "U4", row).MoveValue();
  fx.AddRating(u4, fx.match_point, 4);
  fx.Rebuild();

  CancelSingleAnnotation cls(std::vector<DomainId>{fx.user_domain});
  auto valuations = cls.Generate(*fx.p0, fx.ctx);
  EuclideanValFunc vf;
  EnumeratedDistance oracle(fx.p0.get(), &fx.registry, &vf, valuations);
  SummarizerOptions options;
  options.w_dist = 1.0;
  options.w_size = 0.0;
  options.max_steps = 1;
  options.group_equivalent_first = false;
  options.candidates.arity = 3;
  Summarizer s(fx.p0.get(), &fx.registry, &fx.ctx, &fx.constraints, &oracle,
               &valuations, options);
  auto outcome = s.Run();
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.value().steps.size(), 1u);
  EXPECT_EQ(outcome.value().steps[0].merged_roots.size(), 3u);
}

TEST(SummarizerTest, OrdinalRanksPickAValidCandidate) {
  Harness h(true);
  SummarizerOptions options;
  options.w_dist = 0.5;
  options.w_size = 0.5;
  options.max_steps = 2;
  options.use_ordinal_ranks = true;
  auto outcome = h.Run(options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GE(outcome.value().steps.size(), 1u);
  EXPECT_LT(outcome.value().final_size, 8);
}

TEST(SummarizerTest, RejectsNegativeWeights) {
  Harness h;
  SummarizerOptions options;
  options.w_dist = -0.5;
  auto outcome = h.Run(options);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
}

TEST(SummarizerTest, RejectsBothWeightsZero) {
  Harness h;
  SummarizerOptions options;
  options.w_dist = 0.0;
  options.w_size = 0.0;
  auto outcome = h.Run(options);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
}

TEST(SummarizerTest, NormalizesWeightsThatDoNotSumToOne) {
  // 0.9/0.3 normalizes to 0.75/0.25; the outcome must be identical to
  // requesting the convex combination directly (a common scale factor
  // cannot change the candidate ranking).
  SummarizerOptions skewed;
  skewed.w_dist = 0.9;
  skewed.w_size = 0.3;
  skewed.max_steps = 3;
  skewed.group_equivalent_first = false;
  SummarizerOptions convex;
  convex.w_dist = 0.75;
  convex.w_size = 0.25;
  convex.max_steps = 3;
  convex.group_equivalent_first = false;

  Harness h_skewed;
  Harness h_convex;
  auto a = h_skewed.Run(skewed);
  auto b = h_convex.Run(convex);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().steps.size(), b.value().steps.size());
  for (size_t i = 0; i < a.value().steps.size(); ++i) {
    EXPECT_EQ(a.value().steps[i].merged_roots,
              b.value().steps[i].merged_roots);
    EXPECT_DOUBLE_EQ(a.value().steps[i].score, b.value().steps[i].score);
  }
  EXPECT_EQ(a.value().final_size, b.value().final_size);
  EXPECT_DOUBLE_EQ(a.value().final_distance, b.value().final_distance);
}

TEST(SummarizerTest, RejectsArityBelowTwo) {
  Harness h;
  SummarizerOptions options;
  options.candidates.arity = 1;
  auto outcome = h.Run(options);
  EXPECT_FALSE(outcome.ok());
}

TEST(SummarizerTest, StepRecordsCarryDiagnostics) {
  Harness h;
  SummarizerOptions options;
  options.w_dist = 1.0;
  options.w_size = 0.0;
  options.max_steps = 1;
  options.group_equivalent_first = false;
  auto outcome = h.Run(options);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.value().steps.size(), 1u);
  const StepRecord& step = outcome.value().steps[0];
  EXPECT_EQ(step.step, 1);
  EXPECT_EQ(step.num_candidates, 2);
  EXPECT_EQ(step.merged_roots.size(), 2u);
  EXPECT_GT(step.step_nanos, 0.0);
  EXPECT_GT(step.candidate_eval_nanos, 0.0);
  EXPECT_GT(outcome.value().total_nanos, 0.0);
}

TEST(SummarizerTest, DistanceNeverDecreasesAlongSteps) {
  Harness h(true);
  SummarizerOptions options;
  options.w_dist = 0.0;
  options.w_size = 1.0;
  options.max_steps = 6;
  options.group_equivalent_first = false;
  auto outcome = h.Run(options);
  ASSERT_TRUE(outcome.ok());
  double prev = 0.0;
  int64_t prev_size = 8;
  for (const StepRecord& step : outcome.value().steps) {
    EXPECT_GE(step.distance, prev - 1e-12);
    EXPECT_LE(step.size, prev_size);
    prev = step.distance;
    prev_size = step.size;
  }
}

}  // namespace
}  // namespace prox
