#include "provenance/io.h"

#include <gtest/gtest.h>

#include "ir/agg_expr.h"
#include "ir/ddp_expr.h"
#include "testing/fixtures.h"

namespace prox {
namespace {

using testing_fixtures::MovieFixture;
using testing_fixtures::NewAggregate;
using testing_fixtures::NewDdp;

TEST(IoTest, AggregateRoundTripPreservesEverything) {
  MovieFixture fx;
  std::string text = SerializeExpression(*fx.p0, fx.registry);

  AnnotationRegistry fresh;
  auto parsed = ParseExpression(text, &fresh);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value()->Size(), fx.p0->Size());
  // Canonical factor order depends on annotation ids, which differ between
  // registries; but after one round-trip the text is a fixed point.
  std::string text2 = SerializeExpression(*parsed.value(), fresh);
  AnnotationRegistry fresh2;
  auto parsed2 = ParseExpression(text2, &fresh2);
  ASSERT_TRUE(parsed2.ok());
  EXPECT_EQ(SerializeExpression(*parsed2.value(), fresh2), text2);
}

TEST(IoTest, AggregateRoundTripPreservesEvaluation) {
  MovieFixture fx;
  std::string text = SerializeExpression(*fx.p0, fx.registry);
  AnnotationRegistry fresh;
  auto parsed = ParseExpression(text, &fresh);
  ASSERT_TRUE(parsed.ok());
  // Cancel U2 by name in both registries; evaluations agree.
  AnnotationId u2_orig = fx.registry.Find("U2").MoveValue();
  AnnotationId u2_new = fresh.Find("U2").MoveValue();
  EvalResult a = fx.p0->Evaluate(
      MaterializedValuation(Valuation({u2_orig}), fx.registry.size()));
  EvalResult b = parsed.value()->Evaluate(
      MaterializedValuation(Valuation({u2_new}), fresh.size()));
  ASSERT_EQ(a.coords().size(), b.coords().size());
  for (const auto& coord : a.coords()) {
    AnnotationId mapped =
        fresh.Find(fx.registry.name(coord.group)).MoveValue();
    EXPECT_EQ(b.CoordValue(mapped), coord.value);
  }
}

TEST(IoTest, GuardedTermsRoundTrip) {
  AnnotationRegistry reg;
  DomainId users = reg.AddDomain("user");
  DomainId stats = reg.AddDomain("stats");
  AnnotationId u1 = reg.Add(users, "U1").MoveValue();
  AnnotationId s1 = reg.Add(stats, "S1").MoveValue();
  auto expr = NewAggregate(AggKind::kMax);
  expr->AddTerm(Monomial({u1}), kNoAnnotation, {3, 1},
                Guard(Monomial({s1, u1}), 5.0, CompareOp::kGt, 2.0));
  expr->Canonicalize();

  AnnotationRegistry fresh;
  auto parsed = ParseExpression(SerializeExpression(*expr, reg), &fresh);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const ir::IrAggregateExpression* agg = parsed.value()->AsAggregate();
  ASSERT_NE(agg, nullptr);
  ASSERT_EQ(agg->num_terms(), 1u);
  const ir::AggTermView term = agg->term(0);
  ASSERT_TRUE(term.has_guard);
  EXPECT_EQ(term.guard_scalar, 5.0);
  EXPECT_EQ(term.guard_op, CompareOp::kGt);
  EXPECT_EQ(term.guard_threshold, 2.0);
}

TEST(IoTest, QuotedNamesWithSpaces) {
  AnnotationRegistry reg;
  DomainId movies = reg.AddDomain("movie");
  AnnotationId mp = reg.Add(movies, "Match Point (2005)").MoveValue();
  auto expr = NewAggregate(AggKind::kSum);
  expr->AddTerm(Monomial({mp}), mp, {1, 1});
  expr->Canonicalize();

  std::string text = SerializeExpression(*expr, reg);
  EXPECT_NE(text.find("\"Match Point (2005)\""), std::string::npos);
  AnnotationRegistry fresh;
  auto parsed = ParseExpression(text, &fresh);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(fresh.Find("Match Point (2005)").ok());
}

TEST(IoTest, DdpRoundTrip) {
  AnnotationRegistry reg;
  DomainId cost = reg.AddDomain("cost_var");
  DomainId db = reg.AddDomain("db_var");
  AnnotationId c1 = reg.Add(cost, "c1").MoveValue();
  AnnotationId d1 = reg.Add(db, "d1").MoveValue();
  AnnotationId d2 = reg.Add(db, "d2").MoveValue();
  auto flat = NewDdp();
  flat->SetCost(c1, 4.0);
  flat->BeginExecution();
  flat->AddUserTransition(c1);
  flat->AddDbTransition(Monomial({d1, d2}), true);
  flat->BeginExecution();
  flat->AddDbTransition(Monomial({d2}), false);
  flat->Canonicalize();

  AnnotationRegistry fresh;
  auto parsed = ParseExpression(SerializeExpression(*flat, reg), &fresh);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const ir::IrDdpExpression* ddp = parsed.value()->AsDdp();
  ASSERT_NE(ddp, nullptr);
  EXPECT_EQ(ddp->num_executions(), 2u);
  EXPECT_EQ(ddp->CostOf(fresh.Find("c1").MoveValue()), 4.0);
  EXPECT_EQ(parsed.value()->Size(), flat->Size());

  // Evaluation agrees under the all-true valuation.
  EXPECT_EQ(parsed.value()->Evaluate(MaterializedValuation(fresh.size())),
            flat->Evaluate(MaterializedValuation(reg.size())));
}

TEST(IoTest, ParsingIntoPopulatedRegistryReusesAnnotations) {
  MovieFixture fx;
  std::string text = SerializeExpression(*fx.p0, fx.registry);
  size_t before = fx.registry.size();
  auto parsed = ParseExpression(text, &fx.registry);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(fx.registry.size(), before);  // nothing re-interned
}

TEST(IoTest, DomainConflictIsError) {
  AnnotationRegistry reg;
  DomainId users = reg.AddDomain("user");
  ASSERT_TRUE(reg.Add(users, "X1").ok());
  auto parsed = ParseExpression(
      "(aggregate MAX (term (mono movie/X1) (value 1 1)))", &reg);
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(IoTest, MalformedInputsAreRejected) {
  AnnotationRegistry reg;
  EXPECT_FALSE(ParseExpression("", &reg).ok());
  EXPECT_FALSE(ParseExpression("(aggregate)", &reg).ok());
  EXPECT_FALSE(ParseExpression("(aggregate BOGUS)", &reg).ok());
  EXPECT_FALSE(ParseExpression("(aggregate MAX (term))", &reg).ok());
  EXPECT_FALSE(
      ParseExpression("(aggregate MAX (term (mono user/U1)", &reg).ok());
  EXPECT_FALSE(ParseExpression("(ddp (exec (db ?? db/d1)))", &reg).ok());
  EXPECT_FALSE(ParseExpression("(something-else)", &reg).ok());
  EXPECT_FALSE(ParseExpression(
                   "(aggregate MAX (term (mono noslash) (value 1 1)))", &reg)
                   .ok());
}

TEST(IoTest, NumbersAreValidatedStrictly) {
  AnnotationRegistry reg;
  EXPECT_FALSE(
      ParseExpression(
          "(aggregate MAX (term (mono user/U1) (value abc 1)))", &reg)
          .ok());
}

}  // namespace
}  // namespace prox
