// The DDP provenance structure, built straight into ir::IrDdpExpression.

#include "ir/ddp_expr.h"

#include <gtest/gtest.h>

#include "testing/fixtures.h"

namespace prox {
namespace {

using testing_fixtures::NewDdp;
using testing_fixtures::ProjectThroughBlock;

/// Builds Example 5.2.2's expression:
///   ⟨c1,1⟩·⟨0,[d1·d2]≠0⟩ + ⟨0,[d2·d3]=0⟩·⟨c2,1⟩
struct DdpFixture {
  AnnotationRegistry registry;
  DomainId cost_domain, db_domain;
  AnnotationId c1, c2, d1, d2, d3;
  std::unique_ptr<ir::IrDdpExpression> expr = NewDdp();

  DdpFixture() {
    cost_domain = registry.AddDomain("cost_var");
    db_domain = registry.AddDomain("db_var");
    c1 = registry.Add(cost_domain, "c1").MoveValue();
    c2 = registry.Add(cost_domain, "c2").MoveValue();
    d1 = registry.Add(db_domain, "d1").MoveValue();
    d2 = registry.Add(db_domain, "d2").MoveValue();
    d3 = registry.Add(db_domain, "d3").MoveValue();
    expr->SetCost(c1, 4.0);
    expr->SetCost(c2, 6.0);

    expr->BeginExecution();
    expr->AddUserTransition(c1);
    expr->AddDbTransition(Monomial({d1, d2}), true);

    expr->BeginExecution();
    expr->AddDbTransition(Monomial({d2, d3}), false);
    expr->AddUserTransition(c2);
    expr->Canonicalize();
  }
};

TEST(DdpExprTest, SizeCountsVariableOccurrences) {
  DdpFixture fx;
  // e1: c1 + d1·d2 = 3; e2: d2·d3 + c2 = 3.
  EXPECT_EQ(fx.expr->Size(), 6);
}

TEST(DdpExprTest, CollectAnnotationsIsSortedUnique) {
  DdpFixture fx;
  std::vector<AnnotationId> anns;
  fx.expr->CollectAnnotations(&anns);
  EXPECT_EQ(anns, (std::vector<AnnotationId>{fx.c1, fx.c2, fx.d1, fx.d2,
                                             fx.d3}));
}

TEST(DdpExprTest, AllTrueEvaluation) {
  DdpFixture fx;
  // All DB vars true: e1's guard [d1·d2]≠0 holds (cost 4); e2's [d2·d3]=0
  // fails. Min feasible cost = 4.
  EvalResult r = fx.expr->Evaluate(MaterializedValuation(fx.registry.size()));
  EXPECT_TRUE(r.feasible());
  EXPECT_EQ(r.cost(), 4.0);
}

TEST(DdpExprTest, EqualityGuardNeedsZeroProduct) {
  DdpFixture fx;
  // Cancel d3: e2's [d2·d3]=0 now holds (cost 6); e1 still feasible (4).
  EvalResult r = fx.expr->Evaluate(
      MaterializedValuation(Valuation({fx.d3}), fx.registry.size()));
  EXPECT_TRUE(r.feasible());
  EXPECT_EQ(r.cost(), 4.0);

  // Cancel d1 and d3: e1 infeasible, e2 feasible at cost 6.
  r = fx.expr->Evaluate(
      MaterializedValuation(Valuation({fx.d1, fx.d3}), fx.registry.size()));
  EXPECT_TRUE(r.feasible());
  EXPECT_EQ(r.cost(), 6.0);
}

TEST(DdpExprTest, InfeasibleWhenNoGuardHolds) {
  DdpFixture fx;
  // Cancel d1 only: e1's ≠0 fails, e2's =0 fails (d2·d3 nonzero).
  EvalResult r = fx.expr->Evaluate(
      MaterializedValuation(Valuation({fx.d1}), fx.registry.size()));
  EXPECT_FALSE(r.feasible());
  EXPECT_EQ(r.cost(), 0.0);
}

TEST(DdpExprTest, CancelledCostVariableContributesZero) {
  DdpFixture fx;
  // Example 5.2.2's valuation: cancel c1, c2; all DB vars true.
  EvalResult r = fx.expr->Evaluate(
      MaterializedValuation(Valuation({fx.c1, fx.c2}), fx.registry.size()));
  EXPECT_TRUE(r.feasible());
  EXPECT_EQ(r.cost(), 0.0);
}

TEST(DdpExprTest, ApplyExample522CollapsesToSingleExecution) {
  // Mapping d1,d3 -> D1 and c1,c2 -> C1 makes the two executions
  // syntactically equal (after changing e2's guard type to match would not
  // be needed here: the example's summary keeps ≠0 and the expression
  // dedupes). We reproduce the collapse with both guards ≠0.
  AnnotationRegistry reg;
  DomainId cost_d = reg.AddDomain("cost_var");
  DomainId db_d = reg.AddDomain("db_var");
  AnnotationId c1 = reg.Add(cost_d, "c1").MoveValue();
  AnnotationId c2 = reg.Add(cost_d, "c2").MoveValue();
  AnnotationId d1 = reg.Add(db_d, "d1").MoveValue();
  AnnotationId d2 = reg.Add(db_d, "d2").MoveValue();
  AnnotationId d3 = reg.Add(db_d, "d3").MoveValue();
  auto expr = NewDdp();
  expr->SetCost(c1, 4.0);
  expr->SetCost(c2, 6.0);
  expr->BeginExecution();
  expr->AddUserTransition(c1);
  expr->AddDbTransition(Monomial({d1, d2}), true);
  expr->BeginExecution();
  expr->AddDbTransition(Monomial({d2, d3}), true);
  expr->AddUserTransition(c2);
  expr->Canonicalize();
  EXPECT_EQ(expr->num_executions(), 2u);

  AnnotationId big_d = reg.AddSummary(db_d, "D1");
  AnnotationId big_c = reg.AddSummary(cost_d, "C1");
  Homomorphism h;
  h.Set(d1, big_d);
  h.Set(d3, big_d);
  h.Set(c1, big_c);
  h.Set(c2, big_c);
  auto mapped = expr->Apply(h);
  const ir::IrDdpExpression* ddp = mapped->AsDdp();
  ASSERT_NE(ddp, nullptr);
  EXPECT_EQ(ddp->num_executions(), 1u);
  EXPECT_EQ(mapped->Size(), 3);  // C1 + D1·d2
  // Merged cost variable takes the max member cost (MAX φ).
  EXPECT_EQ(ddp->CostOf(big_c), 6.0);
}

TEST(DdpExprTest, ApplyPreservesEvaluationOnUnmergedVars) {
  DdpFixture fx;
  Homomorphism identity;
  auto mapped = fx.expr->Apply(identity);
  EvalResult a = fx.expr->Evaluate(MaterializedValuation(fx.registry.size()));
  EvalResult b = mapped->Evaluate(MaterializedValuation(fx.registry.size()));
  EXPECT_EQ(a, b);
}

TEST(DdpExprTest, ProjectEvalResultIsIdentity) {
  DdpFixture fx;
  Homomorphism h;
  h.Set(fx.d1, fx.d2);
  EvalResult base = EvalResult::CostBool(4.0, true);
  EXPECT_EQ(ProjectThroughBlock(*fx.expr->Apply(h), base, h), base);
}

TEST(DdpExprTest, ToStringRendersTransitions) {
  DdpFixture fx;
  std::string text = fx.expr->ToString(fx.registry);
  EXPECT_NE(text.find("⟨c1,1⟩"), std::string::npos);
  EXPECT_NE(text.find("≠0"), std::string::npos);
  EXPECT_NE(text.find("=0"), std::string::npos);
  EXPECT_NE(text.find(" + "), std::string::npos);
}

TEST(DdpExprTest, CloneIsDeep) {
  DdpFixture fx;
  auto clone = fx.expr->Clone();
  EXPECT_EQ(clone->Size(), fx.expr->Size());
  EXPECT_EQ(clone->ToString(fx.registry), fx.expr->ToString(fx.registry));
}

TEST(DdpExprTest, CostOfUnknownVariableIsZero) {
  EXPECT_EQ(NewDdp()->CostOf(42), 0.0);
}

TEST(DdpExprTest, EmptyExpressionIsInfeasible) {
  auto expr = NewDdp();
  expr->Canonicalize();
  EvalResult r = expr->Evaluate(MaterializedValuation(0));
  EXPECT_FALSE(r.feasible());
  EXPECT_EQ(expr->ToString(AnnotationRegistry()), "0");
}

}  // namespace
}  // namespace prox
