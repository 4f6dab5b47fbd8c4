#include "datasets/wikipedia.h"

#include <gtest/gtest.h>

#include "ir/agg_expr.h"

namespace prox {
namespace {

TEST(WikipediaGeneratorTest, DeterministicForFixedSeed) {
  Dataset a = WikipediaGenerator::Generate(WikipediaConfig{});
  Dataset b = WikipediaGenerator::Generate(WikipediaConfig{});
  EXPECT_EQ(a.provenance->ToString(*a.registry),
            b.provenance->ToString(*b.registry));
}

TEST(WikipediaGeneratorTest, Table51StructureHolds) {
  // Every term is (Username·PageTitle) ⊗ (EditType, 1) with SUM
  // aggregation and page grouping.
  Dataset ds = WikipediaGenerator::Generate(WikipediaConfig{});
  const ir::IrAggregateExpression* agg = ds.provenance->AsAggregate();
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->agg(), AggKind::kSum);
  DomainId user = ds.domain("wiki_user");
  DomainId page = ds.domain("page");
  for (size_t i = 0; i < agg->num_terms(); ++i) {
    const ir::AggTermView t = agg->term(i);
    ASSERT_EQ(t.mono_len, 2u);
    EXPECT_EQ(ds.registry->domain(t.mono[0]), user);
    EXPECT_EQ(ds.registry->domain(t.mono[1]), page);
    EXPECT_EQ(ds.registry->domain(t.group), page);
    EXPECT_TRUE(t.value.value == 0.0 || t.value.value == 1.0);
  }
}

TEST(WikipediaGeneratorTest, PagesDenoteLeafConcepts) {
  Dataset ds = WikipediaGenerator::Generate(WikipediaConfig{});
  ASSERT_TRUE(ds.ctx.taxonomy.has_value());
  for (AnnotationId page :
       ds.registry->AnnotationsInDomain(ds.domain("page"))) {
    if (ds.registry->is_summary(page)) continue;
    ConceptId c = ds.ctx.ConceptOf(page);
    ASSERT_NE(c, kNoConcept);
    EXPECT_TRUE(ds.ctx.taxonomy->children(c).empty())
        << "page concept should be a leaf";
  }
}

TEST(WikipediaGeneratorTest, TaxonomyHasWordNetBackbone) {
  Dataset ds = WikipediaGenerator::Generate(WikipediaConfig{});
  const Taxonomy& tax = *ds.ctx.taxonomy;
  ASSERT_TRUE(tax.Find("wordnet_entity").ok());
  ConceptId singer = tax.Find("wordnet_singer").MoveValue();
  ConceptId guitarist = tax.Find("wordnet_guitarist").MoveValue();
  ConceptId artist = tax.Find("wordnet_artist").MoveValue();
  EXPECT_EQ(tax.Lca(singer, guitarist), artist);
}

TEST(WikipediaGeneratorTest, PageMergesConstrainedByTaxonomy) {
  Dataset ds = WikipediaGenerator::Generate(WikipediaConfig{});
  DomainId page = ds.domain("page");
  auto pages = ds.registry->AnnotationsInDomain(page);
  ASSERT_GE(pages.size(), 2u);
  // Same-leaf pages (if any) merge under the leaf name; any two pages under
  // wordnet_person merge under a sub-root ancestor; person-vs-place pairs
  // are rejected (root-only LCA).
  const Taxonomy& tax = *ds.ctx.taxonomy;
  ConceptId root = tax.Find("wordnet_entity").MoveValue();
  for (size_t i = 0; i < pages.size(); ++i) {
    for (size_t j = i + 1; j < pages.size(); ++j) {
      MergeDecision d =
          ds.constraints.Evaluate(page, {pages[i], pages[j]}, ds.ctx);
      ConceptId lca =
          tax.Lca(ds.ctx.ConceptOf(pages[i]), ds.ctx.ConceptOf(pages[j]));
      EXPECT_EQ(d.allowed, lca != root);
      if (d.allowed) {
        EXPECT_EQ(d.name, tax.name(lca));
      }
    }
  }
}

TEST(WikipediaGeneratorTest, UsersCarryContributionAttributes) {
  Dataset ds = WikipediaGenerator::Generate(WikipediaConfig{});
  const EntityTable* users = ds.ctx.TableFor(ds.domain("wiki_user"));
  ASSERT_NE(users, nullptr);
  EXPECT_TRUE(users->FindAttribute("IsRegistered").ok());
  EXPECT_TRUE(users->FindAttribute("Gender").ok());
  EXPECT_TRUE(users->FindAttribute("ContributionLevel").ok());
}

TEST(WikipediaGeneratorTest, FeaturesForBothClusterableDomains) {
  Dataset ds = WikipediaGenerator::Generate(WikipediaConfig{});
  EXPECT_EQ(ds.features.count(ds.domain("wiki_user")), 1u);
  EXPECT_EQ(ds.features.count(ds.domain("page")), 1u);
}

TEST(WikipediaGeneratorTest, ScalesWithConfig) {
  WikipediaConfig config;
  config.num_users = 8;
  config.num_pages = 6;
  Dataset ds = WikipediaGenerator::Generate(config);
  EXPECT_EQ(ds.registry->AnnotationsInDomain(ds.domain("wiki_user")).size(),
            8u);
  EXPECT_EQ(ds.registry->AnnotationsInDomain(ds.domain("page")).size(), 6u);
}

}  // namespace
}  // namespace prox
