// The aggregate provenance structure, built straight into
// ir::IrAggregateExpression.

#include "ir/agg_expr.h"

#include <gtest/gtest.h>

#include "testing/fixtures.h"

namespace prox {
namespace {

using testing_fixtures::MovieFixture;
using testing_fixtures::NewAggregate;
using testing_fixtures::ProjectThroughBlock;
using testing_fixtures::WithAgg;

TEST(AggregateExprTest, SizeCountsAnnotationOccurrences) {
  MovieFixture fx;
  // 4 terms × (user, movie) = 8 annotation occurrences.
  EXPECT_EQ(fx.p0->Size(), 8);
  EXPECT_EQ(fx.p0->num_terms(), 4u);
}

TEST(AggregateExprTest, CollectAnnotationsIsSortedUnique) {
  MovieFixture fx;
  std::vector<AnnotationId> anns;
  fx.p0->CollectAnnotations(&anns);
  EXPECT_EQ(anns, (std::vector<AnnotationId>{fx.u1, fx.u2, fx.u3,
                                             fx.match_point,
                                             fx.blue_jasmine}));
}

TEST(AggregateExprTest, GroupsListsDistinctGroupKeys) {
  MovieFixture fx;
  EXPECT_EQ(fx.p0->Groups(), (std::vector<AnnotationId>{fx.match_point,
                                                        fx.blue_jasmine}));
}

TEST(AggregateExprTest, EvaluateAllTrueYieldsPerMovieAggregates) {
  MovieFixture fx;
  EvalResult r = fx.p0->Evaluate(MaterializedValuation(fx.registry.size()));
  ASSERT_EQ(r.kind(), EvalResult::Kind::kVector);
  EXPECT_EQ(r.CoordValue(fx.match_point), 5.0);  // MAX(3, 5, 3)
  EXPECT_EQ(r.CoordValue(fx.blue_jasmine), 4.0);
}

TEST(AggregateExprTest, EvaluateCancellingMaxContributor) {
  // Cancelling U2 drops the MAX rating of MatchPoint to 3 and zeroes
  // BlueJasmine (its only review) — the Example 4.2.3 scenario.
  MovieFixture fx;
  MaterializedValuation v(Valuation({fx.u2}), fx.registry.size());
  EvalResult r = fx.p0->Evaluate(v);
  EXPECT_EQ(r.CoordValue(fx.match_point), 3.0);
  EXPECT_EQ(r.CoordValue(fx.blue_jasmine), 0.0);
}

TEST(AggregateExprTest, EvaluateCancellingMovieZeroesItsCoordinate) {
  MovieFixture fx;
  MaterializedValuation v(Valuation({fx.match_point}), fx.registry.size());
  EvalResult r = fx.p0->Evaluate(v);
  EXPECT_EQ(r.CoordValue(fx.match_point), 0.0);
  EXPECT_EQ(r.CoordValue(fx.blue_jasmine), 4.0);
}

TEST(AggregateExprTest, SumAggregationAddsContributions) {
  MovieFixture fx;
  EvalResult r = WithAgg(*fx.p0, AggKind::kSum)
                     ->Evaluate(MaterializedValuation(fx.registry.size()));
  EXPECT_EQ(r.CoordValue(fx.match_point), 11.0);  // 3 + 5 + 3
}

TEST(AggregateExprTest, CountAggregationCountsContributors) {
  MovieFixture fx;
  EvalResult r = WithAgg(*fx.p0, AggKind::kCount)
                     ->Evaluate(MaterializedValuation(fx.registry.size()));
  EXPECT_EQ(r.CoordValue(fx.match_point), 3.0);
  EXPECT_EQ(r.CoordValue(fx.blue_jasmine), 1.0);
}

TEST(AggregateExprTest, SimplifyMergesEqualKeyTensors) {
  auto e = NewAggregate(AggKind::kMax);
  e->AddTerm(Monomial({1}), /*group=*/9, {3, 1});
  e->AddTerm(Monomial({1}), /*group=*/9, {5, 1});
  e->Canonicalize();
  ASSERT_EQ(e->num_terms(), 1u);
  EXPECT_EQ(e->term(0).value.value, 5);
  EXPECT_EQ(e->term(0).value.count, 2);
}

TEST(AggregateExprTest, ApplyThesisExample311FemaleMapping) {
  // P_s = U1⊗(3,1) ⊕ U2⊗(5,1) ⊕ U3⊗(3,1); mapping U1,U2 -> Female gives
  // P'_s = Female⊗(5,2) ⊕ U3⊗(3,1)  (Example 3.1.1).
  AnnotationRegistry reg;
  DomainId d = reg.AddDomain("user");
  AnnotationId u1 = reg.Add(d, "U1").MoveValue();
  AnnotationId u2 = reg.Add(d, "U2").MoveValue();
  AnnotationId u3 = reg.Add(d, "U3").MoveValue();
  AnnotationId female = reg.AddSummary(d, "Female");

  auto flat = NewAggregate(AggKind::kMax);
  for (auto [u, score] : {std::pair{u1, 3.0}, {u2, 5.0}, {u3, 3.0}}) {
    flat->AddTerm(Monomial({u}), kNoAnnotation, {score, 1});
  }
  flat->Canonicalize();
  EXPECT_EQ(flat->Size(), 3);

  Homomorphism h;
  h.Set(u1, female);
  h.Set(u2, female);
  auto mapped = flat->Apply(h);
  EXPECT_EQ(mapped->Size(), 2);
  const ir::IrAggregateExpression* agg = mapped->AsAggregate();
  ASSERT_NE(agg, nullptr);
  ASSERT_EQ(agg->num_terms(), 2u);
  // Female⊗(5,2) and U3⊗(3,1), in some canonical order.
  bool found_female = false, found_u3 = false;
  for (size_t i = 0; i < agg->num_terms(); ++i) {
    const ir::AggTermView t = agg->term(i);
    const Monomial mono = MonomialFromSpan(t.mono, t.mono_len);
    if (mono.Contains(female)) {
      EXPECT_EQ(t.value.value, 5);
      EXPECT_EQ(t.value.count, 2);
      found_female = true;
    }
    if (mono.Contains(u3)) {
      EXPECT_EQ(t.value.value, 3);
      EXPECT_EQ(t.value.count, 1);
      found_u3 = true;
    }
  }
  EXPECT_TRUE(found_female);
  EXPECT_TRUE(found_u3);
}

TEST(AggregateExprTest, ApplyRemapsGroupKeys) {
  MovieFixture fx;
  AnnotationId merged_movie =
      fx.registry.AddSummary(fx.movie_domain, "WoodyAllenFilms");
  Homomorphism h;
  h.Set(fx.match_point, merged_movie);
  h.Set(fx.blue_jasmine, merged_movie);
  auto mapped = fx.p0->Apply(h);
  const ir::IrAggregateExpression* agg = mapped->AsAggregate();
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->Groups(), (std::vector<AnnotationId>{merged_movie}));
  EvalResult r = mapped->Evaluate(MaterializedValuation(fx.registry.size()));
  EXPECT_EQ(r.CoordValue(merged_movie), 5.0);  // MAX over everything
}

TEST(AggregateExprTest, ProjectEvalResultMergesCoordinates) {
  MovieFixture fx;
  AnnotationId merged_movie =
      fx.registry.AddSummary(fx.movie_domain, "Merged");
  Homomorphism h;
  h.Set(fx.match_point, merged_movie);
  h.Set(fx.blue_jasmine, merged_movie);
  auto mapped = fx.p0->Apply(h);

  EvalResult base = fx.p0->Evaluate(MaterializedValuation(fx.registry.size()));
  EvalResult projected = ProjectThroughBlock(*mapped, base, h);
  ASSERT_EQ(projected.kind(), EvalResult::Kind::kVector);
  // MAX(5, 4) = 5 under the merged coordinate.
  EXPECT_EQ(projected.CoordValue(merged_movie), 5.0);
}

TEST(AggregateExprTest, ProjectEvalResultSumAddsCoordinates) {
  // The vector transformation of Example 5.2.1: SUM-aggregating merged
  // coordinates. Groups 1 and 2 map to 10; annotation 5 is the rows' fact.
  auto e = NewAggregate(AggKind::kSum);
  for (AnnotationId group : {1, 2, 3}) {
    e->AddTerm(Monomial({5}), group, AggValue{1.0, 1.0});
  }
  e->Canonicalize();
  Homomorphism h;
  h.Set(1, 10);
  h.Set(2, 10);
  EvalResult base = EvalResult::Vector({{1, 1.0}, {2, 1.0}, {3, 0.5}});
  EvalResult projected = ProjectThroughBlock(*e->Apply(h), base, h);
  EXPECT_EQ(projected.CoordValue(10), 2.0);
  EXPECT_EQ(projected.CoordValue(3), 0.5);
}

TEST(AggregateExprTest, ScalarExpressionEvaluatesToScalar) {
  auto e = NewAggregate(AggKind::kMax);
  e->AddTerm(Monomial({0}), kNoAnnotation, {4, 1});
  e->Canonicalize();
  EvalResult r = e->Evaluate(MaterializedValuation(1));
  EXPECT_EQ(r.kind(), EvalResult::Kind::kScalar);
  EXPECT_EQ(r.scalar(), 4.0);
}

TEST(AggregateExprTest, GuardedTermRespectsGuard) {
  // U1·[S1·U1⊗5 > 2] ⊗ (3,1): cancelling S1 kills the term via the guard
  // (Example 2.3.1).
  AnnotationRegistry reg;
  DomainId d = reg.AddDomain("x");
  AnnotationId u1 = reg.Add(d, "U1").MoveValue();
  AnnotationId s1 = reg.Add(d, "S1").MoveValue();
  auto flat = NewAggregate(AggKind::kMax);
  flat->AddTerm(Monomial({u1}), kNoAnnotation, {3, 1},
                Guard(Monomial({s1, u1}), 5.0, CompareOp::kGt, 2.0));
  flat->Canonicalize();
  EXPECT_EQ(flat->Size(), 3);  // U1 + guard body S1·U1

  EvalResult all_true = flat->Evaluate(MaterializedValuation(reg.size()));
  EXPECT_EQ(all_true.scalar(), 3.0);
  EvalResult s1_cancelled =
      flat->Evaluate(MaterializedValuation(Valuation({s1}), reg.size()));
  EXPECT_EQ(s1_cancelled.scalar(), 0.0);
}

TEST(AggregateExprTest, CloneIsDeepAndEqualText) {
  MovieFixture fx;
  auto clone = fx.p0->Clone();
  EXPECT_EQ(clone->Size(), fx.p0->Size());
  EXPECT_EQ(clone->ToString(fx.registry), fx.p0->ToString(fx.registry));
}

TEST(AggregateExprTest, ToStringShowsTensors) {
  MovieFixture fx;
  std::string text = fx.p0->ToString(fx.registry);
  EXPECT_NE(text.find("U2·MatchPoint ⊗ (5.0, 1)"), std::string::npos);
  EXPECT_NE(text.find("⊕"), std::string::npos);
  auto empty = NewAggregate(AggKind::kMax);
  empty->Canonicalize();
  EXPECT_EQ(empty->ToString(fx.registry), "0");
}

}  // namespace
}  // namespace prox
