// Plain ℕ[Ann] provenance (the base semiring model of [21]): a semiring
// Polynomial adopted into ir::IrPolynomialExpression.

#include <gtest/gtest.h>

#include "ir/adopt.h"
#include "semiring/polynomial.h"
#include "summarize/distance.h"
#include "summarize/mapping_state.h"
#include "summarize/val_func.h"
#include "summarize/valuation_class.h"

namespace prox {
namespace {

struct PolyFixture {
  AnnotationRegistry registry;
  DomainId domain;
  AnnotationId x, y, z;
  std::unique_ptr<ProvenanceExpression> expr;

  // x·y + z — the lineage of a UCQ result with two derivations.
  PolyFixture()
      : domain(registry.AddDomain("tuple")),
        x(registry.Add(domain, "x").MoveValue()),
        y(registry.Add(domain, "y").MoveValue()),
        z(registry.Add(domain, "z").MoveValue()),
        expr(ir::Adopt(Polynomial::FromVar(x) * Polynomial::FromVar(y) +
                           Polynomial::FromVar(z),
                       std::make_shared<ir::TermPool>())) {}
};

TEST(PolynomialExprTest, SizeAndAnnotations) {
  PolyFixture fx;
  EXPECT_EQ(fx.expr->Size(), 3);  // x, y, z occurrences
  std::vector<AnnotationId> anns;
  fx.expr->CollectAnnotations(&anns);
  EXPECT_EQ(anns, (std::vector<AnnotationId>{fx.x, fx.y, fx.z}));
}

TEST(PolynomialExprTest, EvaluateCountsDerivations) {
  PolyFixture fx;
  EXPECT_EQ(fx.expr->Evaluate(MaterializedValuation(3)).scalar(), 2.0);
  EXPECT_EQ(fx.expr->Evaluate(MaterializedValuation(Valuation({fx.z}), 3))
                .scalar(),
            1.0);
  EXPECT_EQ(
      fx.expr->Evaluate(MaterializedValuation(Valuation({fx.x, fx.z}), 3))
          .scalar(),
      0.0);
}

TEST(PolynomialExprTest, ApplyMergesVariables) {
  PolyFixture fx;
  AnnotationId merged = fx.registry.AddSummary(fx.domain, "xy");
  Homomorphism h;
  h.Set(fx.x, merged);
  h.Set(fx.y, merged);
  auto mapped = fx.expr->Apply(h);
  // x·y -> xy² ; size stays 3 (multiplicity preserved in ℕ[Ann]).
  EXPECT_EQ(mapped->Size(), 3);
  EXPECT_EQ(mapped->Evaluate(MaterializedValuation(fx.registry.size()))
                .scalar(),
            2.0);
  EXPECT_EQ(
      mapped
          ->Evaluate(MaterializedValuation(Valuation({merged, fx.z}),
                                           fx.registry.size()))
          .scalar(),
      0.0);
}

TEST(PolynomialExprTest, ToStringUsesNames) {
  PolyFixture fx;
  EXPECT_EQ(fx.expr->ToString(fx.registry), "x·y + z");
}

TEST(PolynomialExprTest, CloneIsDeep) {
  PolyFixture fx;
  auto clone = fx.expr->Clone();
  EXPECT_EQ(clone->Size(), 3);
  EXPECT_EQ(clone->ToString(fx.registry), fx.expr->ToString(fx.registry));
}

TEST(PolynomialExprTest, SummarizationMachineryApplies) {
  // The distance oracle runs on ℕ[Ann] lineage: merging x and z (which
  // disagree under cancel-single-annotation valuations) has positive
  // disagreement distance; merging nothing has zero.
  PolyFixture fx;
  SemanticContext ctx;
  ctx.registry = &fx.registry;
  CancelSingleAnnotation cls;
  auto valuations = cls.Generate(*fx.expr, ctx);
  ASSERT_EQ(valuations.size(), 3u);
  DisagreementValFunc vf;
  EnumeratedDistance oracle(fx.expr.get(), &fx.registry, &vf, valuations);

  MappingState identity(&fx.registry, PhiConfig{});
  EXPECT_EQ(oracle.Distance(*fx.expr, identity), 0.0);

  AnnotationId merged = fx.registry.AddSummary(fx.domain, "xz");
  MappingState state(&fx.registry, PhiConfig{});
  state.Merge({fx.x, fx.z}, merged);
  Homomorphism h;
  h.Set(fx.x, merged);
  h.Set(fx.z, merged);
  auto cand = fx.expr->Apply(h);
  EXPECT_GT(oracle.Distance(*cand, state), 0.0);
}

}  // namespace
}  // namespace prox
