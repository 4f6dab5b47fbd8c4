#include "datasets/ddp.h"

#include <gtest/gtest.h>

#include "ir/ddp_expr.h"

namespace prox {
namespace {

TEST(DdpGeneratorTest, DeterministicForFixedSeed) {
  Dataset a = DdpGenerator::Generate(DdpConfig{});
  Dataset b = DdpGenerator::Generate(DdpConfig{});
  EXPECT_EQ(a.provenance->ToString(*a.registry),
            b.provenance->ToString(*b.registry));
}

TEST(DdpGeneratorTest, StructureFollowsExample522) {
  Dataset ds = DdpGenerator::Generate(DdpConfig{});
  const ir::IrDdpExpression* ddp = ds.provenance->AsDdp();
  ASSERT_NE(ddp, nullptr);
  EXPECT_GT(ddp->num_executions(), 0u);
  DdpConfig config;
  for (size_t e = 0; e < ddp->num_executions(); ++e) {
    const size_t num_transitions = ddp->num_transitions(e);
    EXPECT_GE(num_transitions, static_cast<size_t>(config.min_transitions));
    EXPECT_LE(num_transitions, static_cast<size_t>(config.max_transitions));
    for (size_t i = 0; i < num_transitions; ++i) {
      const ir::DdpTransitionView t = ddp->transition(e, i);
      if (t.user) {
        EXPECT_EQ(ds.registry->domain(t.cost_var), ds.domain("cost_var"));
        double cost = ddp->CostOf(t.cost_var);
        EXPECT_GE(cost, 1.0);
        EXPECT_LE(cost, config.max_cost);
      } else {
        EXPECT_GE(t.db_len, 1u);
        EXPECT_LE(t.db_len, 2u);
        for (size_t k = 0; k < t.db_len; ++k) {
          EXPECT_EQ(ds.registry->domain(t.db[k]), ds.domain("db_var"));
        }
      }
    }
  }
}

TEST(DdpGeneratorTest, CostConstraintUsesTolerance) {
  DdpConfig config;
  config.cost_tolerance = 0.0;  // only equal costs group
  Dataset ds = DdpGenerator::Generate(config);
  DomainId cost = ds.domain("cost_var");
  const EntityTable* table = ds.ctx.TableFor(cost);
  ASSERT_NE(table, nullptr);
  auto cost_attr = table->FindAttribute("Cost").MoveValue();
  auto vars = ds.registry->AnnotationsInDomain(cost);
  for (size_t i = 0; i < vars.size(); ++i) {
    for (size_t j = i + 1; j < vars.size(); ++j) {
      bool equal_cost = ds.ctx.AttrValueOf(vars[i], cost_attr) ==
                        ds.ctx.AttrValueOf(vars[j], cost_attr);
      EXPECT_EQ(
          ds.constraints.Evaluate(cost, {vars[i], vars[j]}, ds.ctx).allowed,
          equal_cost);
    }
  }
}

TEST(DdpGeneratorTest, DbVariablesMergeFreely) {
  Dataset ds = DdpGenerator::Generate(DdpConfig{});
  DomainId db = ds.domain("db_var");
  auto vars = ds.registry->AnnotationsInDomain(db);
  ASSERT_GE(vars.size(), 2u);
  EXPECT_TRUE(
      ds.constraints.Evaluate(db, {vars[0], vars[1]}, ds.ctx).allowed);
}

TEST(DdpGeneratorTest, DefaultValFuncIsDdpDifference) {
  Dataset ds = DdpGenerator::Generate(DdpConfig{});
  EXPECT_EQ(ds.val_func->name(), "DdpDifference");
  // Max error = max_cost × max_transitions (Example 5.2.2's 10 × 5).
  EXPECT_EQ(ds.val_func->MaxError(EvalResult::CostBool(0, true)), 50.0);
}

TEST(DdpGeneratorTest, EvaluationProducesCostBool) {
  Dataset ds = DdpGenerator::Generate(DdpConfig{});
  EvalResult r =
      ds.provenance->Evaluate(MaterializedValuation(ds.registry->size()));
  EXPECT_EQ(r.kind(), EvalResult::Kind::kCostBool);
}

TEST(DdpGeneratorTest, ScalesWithConfig) {
  DdpConfig config;
  config.num_executions = 3;
  config.num_db_vars = 4;
  config.num_cost_vars = 3;
  Dataset ds = DdpGenerator::Generate(config);
  EXPECT_EQ(ds.registry->AnnotationsInDomain(ds.domain("db_var")).size(), 4u);
  EXPECT_EQ(ds.registry->AnnotationsInDomain(ds.domain("cost_var")).size(),
            3u);
  const ir::IrDdpExpression* ddp = ds.provenance->AsDdp();
  ASSERT_NE(ddp, nullptr);
  EXPECT_LE(ddp->num_executions(), 3u);  // dedup may shrink
}

}  // namespace
}  // namespace prox
