#include "provenance/io.h"

#include <gtest/gtest.h>

#include "ir/ddp_expr.h"
#include "provenance/aggregate_expr.h"
#include "provenance/ddp_expr.h"
#include "testing/fixtures.h"

namespace prox {
namespace {

using testing_fixtures::Flat;
using testing_fixtures::MovieFixture;

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
  AggregateExpression expr(AggKind::kMax);
  TensorTerm t;
  t.monomial = Monomial({u1});
  t.guard = Guard(Monomial({s1, u1}), 5.0, CompareOp::kGt, 2.0);
  t.group = kNoAnnotation;
  t.value = {3, 1};
  expr.AddTerm(std::move(t));
  expr.Simplify();

  AnnotationRegistry fresh;
  auto parsed =
      ParseExpression(SerializeExpression(*Flat(expr), reg), &fresh);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const AggregateFacade* agg = parsed.value()->AsAggregate();
  ASSERT_NE(agg, nullptr);
  ASSERT_EQ(agg->agg_num_terms(), 1u);
  const AggTermView term = agg->agg_term(0);
  ASSERT_TRUE(term.has_guard);
  EXPECT_EQ(term.guard_scalar, 5.0);
  EXPECT_EQ(term.guard_op, CompareOp::kGt);
  EXPECT_EQ(term.guard_threshold, 2.0);
}

TEST(IoTest, QuotedNamesWithSpaces) {
  AnnotationRegistry reg;
  DomainId movies = reg.AddDomain("movie");
  AnnotationId mp = reg.Add(movies, "Match Point (2005)").MoveValue();
  AggregateExpression expr(AggKind::kSum);
  TensorTerm t;
  t.monomial = Monomial({mp});
  t.group = mp;
  t.value = {1, 1};
  expr.AddTerm(std::move(t));
  expr.Simplify();

  std::string text = SerializeExpression(*Flat(expr), reg);
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
  DdpExpression expr;
  expr.SetCost(c1, 4.0);
  DdpExecution e;
  e.transitions.push_back(DdpTransition::User(c1));
  e.transitions.push_back(DdpTransition::Db(Monomial({d1, d2}), true));
  expr.AddExecution(std::move(e));
  DdpExecution e2;
  e2.transitions.push_back(DdpTransition::Db(Monomial({d2}), false));
  expr.AddExecution(std::move(e2));
  expr.Simplify();

  AnnotationRegistry fresh;
  auto flat = Flat(expr);
  auto parsed = ParseExpression(SerializeExpression(*flat, reg), &fresh);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const auto* ddp =
      dynamic_cast<const ir::IrDdpExpression*>(parsed.value().get());
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
