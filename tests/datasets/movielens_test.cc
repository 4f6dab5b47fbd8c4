#include "datasets/movielens.h"

#include <gtest/gtest.h>

#include "ir/agg_expr.h"
#include "summarize/distance.h"
#include "summarize/summarizer.h"

namespace prox {
namespace {

TEST(MovieLensGeneratorTest, DeterministicForFixedSeed) {
  MovieLensConfig config;
  Dataset a = MovieLensGenerator::Generate(config);
  Dataset b = MovieLensGenerator::Generate(config);
  EXPECT_EQ(a.provenance->Size(), b.provenance->Size());
  EXPECT_EQ(a.provenance->ToString(*a.registry),
            b.provenance->ToString(*b.registry));
}

TEST(MovieLensGeneratorTest, DifferentSeedsDiffer) {
  MovieLensConfig a_config, b_config;
  b_config.seed = a_config.seed + 1;
  Dataset a = MovieLensGenerator::Generate(a_config);
  Dataset b = MovieLensGenerator::Generate(b_config);
  EXPECT_NE(a.provenance->ToString(*a.registry),
            b.provenance->ToString(*b.registry));
}

TEST(MovieLensGeneratorTest, Table51StructureHolds) {
  // Every term is (UserID·MovieTitle·MovieYear) ⊗ (Rating, 1) grouped by
  // movie title.
  MovieLensConfig config;
  Dataset ds = MovieLensGenerator::Generate(config);
  const ir::IrAggregateExpression* agg = ds.provenance->AsAggregate();
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->agg(), AggKind::kMax);
  DomainId user = ds.domain("user");
  DomainId movie = ds.domain("movie");
  DomainId year = ds.domain("year");
  for (size_t i = 0; i < agg->num_terms(); ++i) {
    const ir::AggTermView t = agg->term(i);
    const Monomial monomial = MonomialFromSpan(t.mono, t.mono_len);
    ASSERT_EQ(monomial.factors().size(), 3u);
    int users = 0, movies = 0, years = 0;
    for (AnnotationId a : monomial.factors()) {
      DomainId d = ds.registry->domain(a);
      users += d == user;
      movies += d == movie;
      years += d == year;
    }
    EXPECT_EQ(users, 1);
    EXPECT_EQ(movies, 1);
    EXPECT_EQ(years, 1);
    EXPECT_EQ(ds.registry->domain(t.group), movie);
    EXPECT_TRUE(monomial.Contains(t.group));
    EXPECT_GE(t.value.value, 1.0);
    EXPECT_LE(t.value.value, 5.0);
    EXPECT_EQ(t.value.count, 1.0);
    EXPECT_FALSE(t.has_guard);
  }
}

TEST(MovieLensGeneratorTest, UsersCarryAllFourAttributes) {
  Dataset ds = MovieLensGenerator::Generate(MovieLensConfig{});
  const EntityTable* users = ds.ctx.TableFor(ds.domain("user"));
  ASSERT_NE(users, nullptr);
  EXPECT_EQ(users->num_attributes(), 4u);
  EXPECT_TRUE(users->FindAttribute("Gender").ok());
  EXPECT_TRUE(users->FindAttribute("AgeRange").ok());
  EXPECT_TRUE(users->FindAttribute("Occupation").ok());
  EXPECT_TRUE(users->FindAttribute("ZipCode").ok());
  EXPECT_EQ(users->num_rows(), 40u);
}

TEST(MovieLensGeneratorTest, ScalesWithConfig) {
  MovieLensConfig config;
  config.num_users = 10;
  config.num_movies = 5;
  config.ratings_per_user = 2;
  Dataset ds = MovieLensGenerator::Generate(config);
  EXPECT_EQ(ds.registry->AnnotationsInDomain(ds.domain("user")).size(), 10u);
  EXPECT_EQ(ds.registry->AnnotationsInDomain(ds.domain("movie")).size(), 5u);
  EXPECT_GT(ds.provenance->Size(), 0);
}

TEST(MovieLensGeneratorTest, ConstraintsAllowSharedAttributePairs) {
  Dataset ds = MovieLensGenerator::Generate(MovieLensConfig{});
  DomainId user = ds.domain("user");
  auto users = ds.registry->AnnotationsInDomain(user);
  // Some pair of the 40 users shares an attribute (pigeonhole on gender).
  bool any_allowed = false;
  for (size_t i = 0; i < users.size() && !any_allowed; ++i) {
    for (size_t j = i + 1; j < users.size() && !any_allowed; ++j) {
      any_allowed =
          ds.constraints.Evaluate(user, {users[i], users[j]}, ds.ctx).allowed;
    }
  }
  EXPECT_TRUE(any_allowed);
}

TEST(MovieLensGeneratorTest, ProvidesDefaultsAndFeatures) {
  Dataset ds = MovieLensGenerator::Generate(MovieLensConfig{});
  EXPECT_NE(ds.valuation_class, nullptr);
  EXPECT_NE(ds.val_func, nullptr);
  EXPECT_EQ(ds.val_func->name(), "Euclidean");
  EXPECT_EQ(ds.features.count(ds.domain("user")), 1u);
  EXPECT_FALSE(ds.features.at(ds.domain("user")).empty());
}

TEST(MovieLensGeneratorTest, GuardedStructureOption) {
  MovieLensConfig config;
  config.num_users = 8;
  config.num_movies = 4;
  config.ratings_per_user = 4;
  config.with_guards = true;
  Dataset ds = MovieLensGenerator::Generate(config);
  const ir::IrAggregateExpression* agg = ds.provenance->AsAggregate();
  ASSERT_NE(agg, nullptr);
  DomainId stats = ds.domain("stats");
  for (size_t i = 0; i < agg->num_terms(); ++i) {
    const ir::AggTermView t = agg->term(i);
    ASSERT_TRUE(t.has_guard);
    EXPECT_EQ(t.guard_op, CompareOp::kGt);
    EXPECT_EQ(t.guard_threshold, 2.0);
    // Guard body is S_u·U_u.
    ASSERT_EQ(t.guard_len, 2u);
    bool has_stats = false, has_user = false;
    for (size_t k = 0; k < t.guard_len; ++k) {
      const AnnotationId a = t.guard_mono[k];
      has_stats |= ds.registry->domain(a) == stats;
      has_user |= ds.registry->domain(a) == ds.domain("user");
    }
    EXPECT_TRUE(has_stats);
    EXPECT_TRUE(has_user);
  }

  // Cancelling a user's Stats annotation kills their contributions
  // (Example 2.3.1 at scale).
  AnnotationId u = ds.registry->AnnotationsInDomain(ds.domain("user"))[0];
  AnnotationId s =
      ds.registry->Find("S_" + ds.registry->name(u)).MoveValue();
  EvalResult with =
      ds.provenance->Evaluate(MaterializedValuation(ds.registry->size()));
  EvalResult without = ds.provenance->Evaluate(
      MaterializedValuation(Valuation({s}), ds.registry->size()));
  // MAX aggregation: values can only drop (or stay) when reviews vanish.
  for (const auto& coord : with.coords()) {
    EXPECT_LE(without.CoordValue(coord.group), coord.value);
  }
}

TEST(MovieLensGeneratorTest, GuardedExpressionSummarizes) {
  MovieLensConfig config;
  config.num_users = 10;
  config.num_movies = 4;
  config.with_guards = true;
  Dataset ds = MovieLensGenerator::Generate(config);
  auto valuations = ds.valuation_class->Generate(*ds.provenance, ds.ctx);
  EnumeratedDistance oracle(ds.provenance.get(), ds.registry.get(),
                            ds.val_func.get(), valuations);
  SummarizerOptions options;
  options.w_dist = 0.5;
  options.w_size = 0.5;
  options.max_steps = 4;
  options.phi = ds.phi;
  Summarizer s(ds.provenance.get(), ds.registry.get(), &ds.ctx,
               &ds.constraints, &oracle, &valuations, options);
  auto outcome = s.Run();
  ASSERT_TRUE(outcome.ok());
  EXPECT_LE(outcome.value().final_size, ds.provenance->Size());
}

TEST(MovieLensGeneratorTest, SumAggregationOption) {
  MovieLensConfig config;
  config.agg = AggKind::kSum;
  Dataset ds = MovieLensGenerator::Generate(config);
  const ir::IrAggregateExpression* agg = ds.provenance->AsAggregate();
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->agg(), AggKind::kSum);
}

}  // namespace
}  // namespace prox
