// AVG aggregation: the (sum, count) pair monoid of Section 2.2, with
// count-weighted projection.

#include <gtest/gtest.h>

#include "ir/agg_expr.h"
#include "provenance/io.h"
#include "testing/fixtures.h"

namespace prox {
namespace {

using testing_fixtures::MovieFixture;
using testing_fixtures::NewAggregate;
using testing_fixtures::ProjectThroughBlock;

std::unique_ptr<ProvenanceExpression> AvgCopy(const MovieFixture& fx) {
  return testing_fixtures::WithAgg(*fx.p0, AggKind::kAvg);
}

TEST(AvgAggregationTest, MergeSumsValuesAndCounts) {
  AggValue merged = MergeAggValues(AggKind::kAvg, {3, 1}, {5, 1});
  EXPECT_EQ(merged.value, 8);  // sum representation
  EXPECT_EQ(merged.count, 2);
  EXPECT_STREQ(AggKindToString(AggKind::kAvg), "AVG");
}

TEST(AvgAggregationTest, EvaluateDividesByContributorCount) {
  MovieFixture fx;
  auto avg = AvgCopy(fx);
  EvalResult r = avg->Evaluate(MaterializedValuation(fx.registry.size()));
  // MatchPoint: (3 + 5 + 3) / 3; BlueJasmine: 4 / 1.
  EXPECT_DOUBLE_EQ(r.CoordValue(fx.match_point), 11.0 / 3.0);
  EXPECT_DOUBLE_EQ(r.CoordValue(fx.blue_jasmine), 4.0);
}

TEST(AvgAggregationTest, EmptyCoordinateIsZeroNotNan) {
  MovieFixture fx;
  auto avg = AvgCopy(fx);
  // Cancel every MatchPoint rater.
  EvalResult r = avg->Evaluate(MaterializedValuation(
      Valuation({fx.u1, fx.u2, fx.u3}), fx.registry.size()));
  EXPECT_EQ(r.CoordValue(fx.match_point), 0.0);
}

TEST(AvgAggregationTest, HomomorphismPreservesAverages) {
  // Merging U1, U2 merges their MatchPoint tensors into (8, 2): the
  // all-true average is unchanged.
  MovieFixture fx;
  auto avg = AvgCopy(fx);
  AnnotationId female = fx.registry.AddSummary(fx.user_domain, "Female");
  Homomorphism h;
  h.Set(fx.u1, female);
  h.Set(fx.u2, female);
  auto mapped = avg->Apply(h);
  EvalResult r = mapped->Evaluate(MaterializedValuation(fx.registry.size()));
  EXPECT_DOUBLE_EQ(r.CoordValue(fx.match_point), 11.0 / 3.0);
}

TEST(AvgAggregationTest, ProjectionIsCountWeighted) {
  // Coordinates (avg 4 over 2 raters) and (avg 1 over 1 rater) merge to
  // avg (4·2 + 1·1)/3 = 3 — not the naive (4+1)/2.
  auto avg = NewAggregate(AggKind::kAvg);
  for (AnnotationId group : {1, 2}) {
    avg->AddTerm(Monomial({5}), group, AggValue{1.0, 1.0});
  }
  avg->Canonicalize();
  Homomorphism h;
  h.Set(1, 10);
  h.Set(2, 10);
  EvalResult base = EvalResult::Vector(
      {EvalResult::Coord{1, 4.0, 2.0}, EvalResult::Coord{2, 1.0, 1.0}});
  EvalResult projected = ProjectThroughBlock(*avg->Apply(h), base, h);
  EXPECT_DOUBLE_EQ(projected.CoordValue(10), 3.0);
}

TEST(AvgAggregationTest, SerializationRoundTrips) {
  MovieFixture fx;
  auto avg = AvgCopy(fx);
  AnnotationRegistry fresh;
  auto parsed =
      ParseExpression(SerializeExpression(*avg, fx.registry), &fresh);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const ir::IrAggregateExpression* agg = parsed.value()->AsAggregate();
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->agg(), AggKind::kAvg);
}

TEST(AvgAggregationTest, SpammerProvisioningChangesAverage) {
  MovieFixture fx;
  auto avg = AvgCopy(fx);
  EvalResult without_u2 = avg->Evaluate(
      MaterializedValuation(Valuation({fx.u2}), fx.registry.size()));
  // MatchPoint average drops to (3 + 3)/2 = 3 without the 5-star review.
  EXPECT_DOUBLE_EQ(without_u2.CoordValue(fx.match_point), 3.0);
  EXPECT_EQ(without_u2.CoordValue(fx.blue_jasmine), 0.0);
}

}  // namespace
}  // namespace prox
