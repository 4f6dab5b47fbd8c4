// Tests for the score-shaping options: taxonomy-weighted scoring
// (Section 3.2's "incorporated as part of the computation") and weighted
// valuation classes (the w(v) of the VAL-FUNC examples).

#include <gtest/gtest.h>

#include "summarize/distance.h"
#include "summarize/summarizer.h"
#include "summarize/val_func.h"
#include "summarize/valuation_class.h"
#include "testing/fixtures.h"

namespace prox {
namespace {

using testing_fixtures::MovieFixture;

/// Wikipedia-style fixture where two page merges tie on distance and size
/// but differ in taxonomy distance: {Adele, Celine} share the deep LCA
/// "singer" while {Adele, Lori} only share "artist".
struct TaxonomyScoreFixture {
  AnnotationRegistry registry;
  DomainId page_domain;
  AnnotationId adele, celine, lori;
  SemanticContext ctx;
  ConstraintSet constraints;
  std::unique_ptr<ProvenanceExpression> p0;

  TaxonomyScoreFixture() {
    page_domain = registry.AddDomain("page");
    adele = registry.Add(page_domain, "Adele").MoveValue();
    celine = registry.Add(page_domain, "CelineDion").MoveValue();
    lori = registry.Add(page_domain, "LoriBlack").MoveValue();

    Taxonomy tax;
    ConceptId entity = tax.AddRoot("entity");
    ConceptId artist = tax.AddConcept("artist", entity).MoveValue();
    ConceptId singer = tax.AddConcept("singer", artist).MoveValue();
    ConceptId guitarist = tax.AddConcept("guitarist", artist).MoveValue();
    ctx.registry = &registry;
    ctx.concept_of[adele] = singer;
    ctx.concept_of[celine] = singer;
    ctx.concept_of[lori] = guitarist;
    ctx.taxonomy = std::move(tax);
    constraints.SetRule(page_domain,
                        std::make_unique<TaxonomyAncestorRule>());

    // Symmetric tensors so every pair merge has identical distance/size.
    auto expr = testing_fixtures::NewAggregate(AggKind::kSum);
    for (AnnotationId page : {adele, celine, lori}) {
      // Single aggregate (no group key): fully symmetric.
      expr->AddTerm(Monomial({page}), kNoAnnotation, {1, 1});
    }
    expr->Canonicalize();
    p0 = std::move(expr);
  }
};

TEST(TaxonomyWeightedScoringTest, PositiveWeightPrefersDeeperLca) {
  TaxonomyScoreFixture fx;
  CancelSingleAnnotation cls;
  auto valuations = cls.Generate(*fx.p0, fx.ctx);
  EuclideanValFunc vf;
  EnumeratedDistance oracle(fx.p0.get(), &fx.registry, &vf, valuations);

  SummarizerOptions options;
  options.w_dist = 0.5;
  options.w_size = 0.5;
  options.w_taxonomy = 0.5;
  options.max_steps = 1;
  options.group_equivalent_first = false;
  options.tie_break = TieBreak::kFirst;  // isolate the score term
  Summarizer s(fx.p0.get(), &fx.registry, &fx.ctx, &fx.constraints, &oracle,
               &valuations, options);
  auto outcome = s.Run();
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.value().steps.size(), 1u);
  // {Adele, Celine} -> singer (taxonomy distance 0) must win over the
  // artist-level merges.
  EXPECT_EQ(outcome.value().steps[0].summary_name, "singer");
}

TEST(TaxonomyWeightedScoringTest, TieBreakAloneAlsoPrefersDeeperLca) {
  TaxonomyScoreFixture fx;
  CancelSingleAnnotation cls;
  auto valuations = cls.Generate(*fx.p0, fx.ctx);
  EuclideanValFunc vf;
  EnumeratedDistance oracle(fx.p0.get(), &fx.registry, &vf, valuations);

  SummarizerOptions options;
  options.w_dist = 0.5;
  options.w_size = 0.5;
  options.w_taxonomy = 0.0;  // scores tie; the tie-break must decide
  options.max_steps = 1;
  options.group_equivalent_first = false;
  options.tie_break = TieBreak::kTaxonomyMax;
  Summarizer s(fx.p0.get(), &fx.registry, &fx.ctx, &fx.constraints, &oracle,
               &valuations, options);
  auto outcome = s.Run();
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.value().steps.size(), 1u);
  EXPECT_EQ(outcome.value().steps[0].summary_name, "singer");
}

TEST(WeightedValuationTest, GroupSizeWeightingChangesDistance) {
  MovieFixture fx;
  CancelSingleAttribute uniform({}, CancelSingleAttribute::Weighting::kUniform);
  CancelSingleAttribute weighted({},
                                 CancelSingleAttribute::Weighting::kGroupSize);
  auto uniform_vals = uniform.Generate(*fx.p0, fx.ctx);
  auto weighted_vals = weighted.Generate(*fx.p0, fx.ctx);
  ASSERT_EQ(uniform_vals.size(), weighted_vals.size());

  bool any_weight_above_one = false;
  for (const Valuation& v : weighted_vals) {
    EXPECT_EQ(v.weight(), static_cast<double>(v.false_set().size()));
    if (v.weight() > 1.0) any_weight_above_one = true;
  }
  EXPECT_TRUE(any_weight_above_one);

  // The two weightings disagree on the distance of the Female merge
  // (valuations cancelling larger groups count more).
  EuclideanValFunc vf;
  EnumeratedDistance uniform_oracle(fx.p0.get(), &fx.registry, &vf,
                                    uniform_vals);
  EnumeratedDistance weighted_oracle(fx.p0.get(), &fx.registry, &vf,
                                     weighted_vals);
  AnnotationId female = fx.registry.AddSummary(fx.user_domain, "Female");
  MappingState state(&fx.registry, PhiConfig{});
  state.Merge({fx.u1, fx.u2}, female);
  Homomorphism h;
  h.Set(fx.u1, female);
  h.Set(fx.u2, female);
  auto cand = fx.p0->Apply(h);
  double du = uniform_oracle.Distance(*cand, state);
  double dw = weighted_oracle.Distance(*cand, state);
  EXPECT_GT(du, 0.0);
  EXPECT_GT(dw, 0.0);
  EXPECT_NE(du, dw);
}

}  // namespace
}  // namespace prox
