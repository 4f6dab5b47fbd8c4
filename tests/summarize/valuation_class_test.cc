#include "summarize/valuation_class.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "testing/fixtures.h"

namespace prox {
namespace {

using testing_fixtures::MovieFixture;

TEST(CancelSingleAnnotationTest, OneValuationPerAnnotation) {
  MovieFixture fx;
  CancelSingleAnnotation cls;
  auto valuations = cls.Generate(*fx.p0, fx.ctx);
  // 3 users + 2 movies.
  EXPECT_EQ(valuations.size(), 5u);
  for (const Valuation& v : valuations) {
    EXPECT_EQ(v.false_set().size(), 1u);
  }
}

TEST(CancelSingleAnnotationTest, DomainFilterRestricts) {
  MovieFixture fx;
  CancelSingleAnnotation cls({fx.user_domain});
  auto valuations = cls.Generate(*fx.p0, fx.ctx);
  EXPECT_EQ(valuations.size(), 3u);
  for (const Valuation& v : valuations) {
    EXPECT_EQ(fx.registry.domain(v.false_set()[0]), fx.user_domain);
  }
}

TEST(CancelSingleAnnotationTest, LabelsNameTheCancelledAnnotation) {
  MovieFixture fx;
  CancelSingleAnnotation cls({fx.user_domain});
  auto valuations = cls.Generate(*fx.p0, fx.ctx);
  bool found = false;
  for (const Valuation& v : valuations) {
    if (v.label() == "cancel U2") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(CancelSingleAttributeTest, OneValuationPerAttributeValue) {
  MovieFixture fx;
  CancelSingleAttribute cls;
  auto valuations = cls.Generate(*fx.p0, fx.ctx);
  // User attribute values present: Gender {F, M}, Role {Audience, Critic}.
  // Movies carry no entity rows.
  EXPECT_EQ(valuations.size(), 4u);
}

TEST(CancelSingleAttributeTest, CancelsAllCarriers) {
  MovieFixture fx;
  CancelSingleAttribute cls;
  auto valuations = cls.Generate(*fx.p0, fx.ctx);
  // "cancel Gender:F" must cancel U1 and U2 together.
  bool found = false;
  for (const Valuation& v : valuations) {
    if (v.label() == "cancel Gender:F") {
      EXPECT_EQ(v.false_set(), (std::vector<AnnotationId>{fx.u1, fx.u2}));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ExhaustiveValuationsTest, EnumeratesAllTruthAssignments) {
  MovieFixture fx;
  ExhaustiveValuations cls;
  auto valuations = cls.Generate(*fx.p0, fx.ctx);
  EXPECT_EQ(valuations.size(), 32u);  // 2^5
  // All distinct.
  std::sort(valuations.begin(), valuations.end(),
            [](const Valuation& a, const Valuation& b) {
              return a.false_set() < b.false_set();
            });
  for (size_t i = 1; i < valuations.size(); ++i) {
    EXPECT_FALSE(valuations[i] == valuations[i - 1]);
  }
}

TEST(ExhaustiveValuationsTest, RefusesBeyondGuardSize) {
  MovieFixture fx;
  ExhaustiveValuations cls(/*max_annotations=*/3);
  EXPECT_TRUE(cls.Generate(*fx.p0, fx.ctx).empty());
}

TEST(SampledValuationsTest, DrawsUnitWeightSamplesFromPerSampleStreams) {
  MovieFixture fx;
  SampledValuations::Options options;
  options.num_samples = 64;
  options.seed = 11;
  const SampledValuations cls = SampledValuations::Create(options).MoveValue();
  const std::vector<Valuation> valuations = cls.Generate(*fx.p0, fx.ctx);
  ASSERT_EQ(valuations.size(), 64u);
  std::vector<AnnotationId> anns;
  fx.p0->CollectAnnotations(&anns);
  size_t cancelled = 0;
  for (size_t s = 0; s < valuations.size(); ++s) {
    // Sample s is a fair coin per annotation from stream s alone.
    Rng rng(options.seed, s);
    std::vector<AnnotationId> expected;
    for (AnnotationId a : anns) {
      if (rng.Bernoulli(0.5)) expected.push_back(a);
    }
    EXPECT_EQ(valuations[s].false_set(), expected) << "sample " << s;
    EXPECT_EQ(valuations[s].weight(), 1.0);
    cancelled += expected.size();
  }
  EXPECT_GT(cancelled, 0u);
  EXPECT_LT(cancelled, valuations.size() * anns.size());
}

TEST(CompositeValuationClassTest, ConcatenatesClasses) {
  MovieFixture fx;
  CompositeValuationClass composite;
  composite.Add(std::make_unique<CancelSingleAnnotation>(
      std::vector<DomainId>{fx.user_domain}));
  composite.Add(std::make_unique<CancelSingleAttribute>());
  auto valuations = composite.Generate(*fx.p0, fx.ctx);
  EXPECT_EQ(valuations.size(), 3u + 4u);
}

struct TaxonomyValuationFixture {
  AnnotationRegistry registry;
  DomainId page_domain;
  AnnotationId adele, lori, lisbon;
  SemanticContext ctx;
  std::unique_ptr<ir::IrAggregateExpression> p0 =
      testing_fixtures::NewAggregate(AggKind::kSum);

  TaxonomyValuationFixture() {
    page_domain = registry.AddDomain("page");
    adele = registry.Add(page_domain, "Adele").MoveValue();
    lori = registry.Add(page_domain, "LoriBlack").MoveValue();
    lisbon = registry.Add(page_domain, "Lisbon").MoveValue();

    Taxonomy tax;
    ConceptId entity = tax.AddRoot("entity");
    ConceptId artist = tax.AddConcept("artist", entity).MoveValue();
    ConceptId singer = tax.AddConcept("singer", artist).MoveValue();
    ConceptId guitarist = tax.AddConcept("guitarist", artist).MoveValue();
    ConceptId place = tax.AddConcept("place", entity).MoveValue();

    ctx.registry = &registry;
    ctx.concept_of[adele] = singer;
    ctx.concept_of[lori] = guitarist;
    ctx.concept_of[lisbon] = place;
    ctx.taxonomy = std::move(tax);

    for (AnnotationId page : {adele, lori, lisbon}) {
      p0->AddTerm(Monomial({page}), page, {1, 1});
    }
    Rebuild();
  }

  void Rebuild() { p0->Canonicalize(); }
};

TEST(CancelSingleAnnotationTest, TaxonomyConsistentWithLeafConcepts) {
  // Leaf-concept pages have no descendants among the expression's
  // annotations, so closure adds nothing.
  TaxonomyValuationFixture fx;
  CancelSingleAnnotation cls({}, /*taxonomy_consistent=*/true);
  auto valuations = cls.Generate(*fx.p0, fx.ctx);
  EXPECT_EQ(valuations.size(), 3u);
  for (const Valuation& v : valuations) {
    EXPECT_EQ(v.false_set().size(), 1u);
  }
}

TEST(CancelSingleAnnotationTest, TaxonomyClosureCancelsDescendants) {
  // Attach a page denoting the *artist* concept itself: cancelling it must
  // also cancel the singer and guitarist pages (the consistency rule of
  // Example 5.2.1).
  TaxonomyValuationFixture fx;
  AnnotationId artists_page =
      fx.registry.Add(fx.page_domain, "ArtistsPortal").MoveValue();
  fx.ctx.concept_of[artists_page] =
      fx.ctx.taxonomy->Find("artist").MoveValue();
  fx.p0->AddTerm(Monomial({artists_page}), artists_page, {1, 1});
  fx.Rebuild();

  CancelSingleAnnotation cls({}, /*taxonomy_consistent=*/true);
  auto valuations = cls.Generate(*fx.p0, fx.ctx);
  bool found = false;
  for (const Valuation& v : valuations) {
    if (v.label() == "cancel ArtistsPortal") {
      EXPECT_TRUE(v.IsFalse(artists_page));
      EXPECT_TRUE(v.IsFalse(fx.adele));
      EXPECT_TRUE(v.IsFalse(fx.lori));
      EXPECT_FALSE(v.IsFalse(fx.lisbon));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace prox
