#include "summarize/mapping_state.h"

#include <gtest/gtest.h>

#include "testing/fixtures.h"

namespace prox {
namespace {

using testing_fixtures::MovieFixture;

std::vector<AnnotationId> MembersOf(const MappingState& state,
                                    AnnotationId root) {
  const std::span<const AnnotationId> members = state.Members(root);
  return {members.begin(), members.end()};
}

TEST(MappingStateTest, FreshStateIsIdentity) {
  MovieFixture fx;
  MappingState state(&fx.registry, PhiConfig{});
  EXPECT_TRUE(state.cumulative().IsIdentity());
  EXPECT_EQ(state.num_merges(), 0);
  EXPECT_EQ(MembersOf(state, fx.u1), (std::vector<AnnotationId>{fx.u1}));
}

TEST(MappingStateTest, MergeUpdatesHomomorphismAndMembers) {
  MovieFixture fx;
  MappingState state(&fx.registry, PhiConfig{});
  AnnotationId female = fx.registry.AddSummary(fx.user_domain, "Female");
  state.Merge({fx.u1, fx.u2}, female);
  EXPECT_EQ(state.cumulative().Map(fx.u1), female);
  EXPECT_EQ(state.cumulative().Map(fx.u2), female);
  EXPECT_EQ(state.cumulative().Map(fx.u3), fx.u3);
  EXPECT_EQ(MembersOf(state, female),
            (std::vector<AnnotationId>{fx.u1, fx.u2}));
  EXPECT_EQ(state.num_merges(), 1);
}

TEST(MappingStateTest, ChainedMergesFlattenMembers) {
  MovieFixture fx;
  MappingState state(&fx.registry, PhiConfig{});
  AnnotationId g1 = fx.registry.AddSummary(fx.user_domain, "G1");
  AnnotationId g2 = fx.registry.AddSummary(fx.user_domain, "G2");
  state.Merge({fx.u1, fx.u2}, g1);
  state.Merge({g1, fx.u3}, g2);
  EXPECT_EQ(state.cumulative().Map(fx.u1), g2);
  EXPECT_EQ(state.cumulative().Map(fx.u2), g2);
  EXPECT_EQ(state.cumulative().Map(fx.u3), g2);
  EXPECT_EQ(MembersOf(state, g2),
            (std::vector<AnnotationId>{fx.u1, fx.u2, fx.u3}));
  // The intermediate group no longer tracks members separately.
  EXPECT_EQ(MembersOf(state, g1), (std::vector<AnnotationId>{g1}));
}

TEST(MappingStateTest, TransformOrCancelsOnlyWhenAllMembersFalse) {
  // φ = ∨: the summary is cancelled only if all members are cancelled
  // (Section 3.2).
  MovieFixture fx;
  MappingState state(&fx.registry, PhiConfig{});
  AnnotationId female = fx.registry.AddSummary(fx.user_domain, "Female");
  state.Merge({fx.u1, fx.u2}, female);

  MaterializedValuation one_false =
      state.Transform(Valuation({fx.u1}), fx.registry.size());
  EXPECT_TRUE(one_false.truth(female));
  EXPECT_FALSE(one_false.truth(fx.u1));

  MaterializedValuation both_false =
      state.Transform(Valuation({fx.u1, fx.u2}), fx.registry.size());
  EXPECT_FALSE(both_false.truth(female));
}

TEST(MappingStateTest, TransformAndCancelsWhenAnyMemberFalse) {
  MovieFixture fx;
  PhiConfig phi;
  phi.fallback = PhiKind::kAnd;
  MappingState state(&fx.registry, phi);
  AnnotationId female = fx.registry.AddSummary(fx.user_domain, "Female");
  state.Merge({fx.u1, fx.u2}, female);

  MaterializedValuation one_false =
      state.Transform(Valuation({fx.u1}), fx.registry.size());
  EXPECT_FALSE(one_false.truth(female));

  MaterializedValuation none_false =
      state.Transform(Valuation(), fx.registry.size());
  EXPECT_TRUE(none_false.truth(female));
}

TEST(MappingStateTest, PerDomainPhiOverride) {
  MovieFixture fx;
  PhiConfig phi;
  phi.fallback = PhiKind::kOr;
  phi.per_domain[fx.movie_domain] = PhiKind::kAnd;
  MappingState state(&fx.registry, phi);
  EXPECT_EQ(state.PhiFor(fx.user_domain), PhiKind::kOr);
  EXPECT_EQ(state.PhiFor(fx.movie_domain), PhiKind::kAnd);
}

TEST(MappingStateTest, CopyIsIndependent) {
  MovieFixture fx;
  MappingState state(&fx.registry, PhiConfig{});
  AnnotationId g1 = fx.registry.AddSummary(fx.user_domain, "G1");
  state.Merge({fx.u1, fx.u2}, g1);

  MappingState copy = state;
  AnnotationId g2 = fx.registry.AddSummary(fx.user_domain, "G2");
  copy.Merge({g1, fx.u3}, g2);

  EXPECT_EQ(state.cumulative().Map(fx.u3), fx.u3);
  EXPECT_EQ(copy.cumulative().Map(fx.u3), g2);
  EXPECT_EQ(state.num_merges(), 1);
  EXPECT_EQ(copy.num_merges(), 2);
}

TEST(MappingStateTest, SummariesRecordCreationOrder) {
  MovieFixture fx;
  MappingState state(&fx.registry, PhiConfig{});
  AnnotationId g1 = fx.registry.AddSummary(fx.user_domain, "G1");
  AnnotationId g2 = fx.registry.AddSummary(fx.user_domain, "G2");
  state.Merge({fx.u1, fx.u2}, g1);
  state.Merge({g1, fx.u3}, g2);
  ASSERT_EQ(state.summaries().size(), 2u);
  EXPECT_EQ(state.summaries()[0].first, g1);
  EXPECT_EQ(state.summaries()[1].first, g2);
  EXPECT_EQ(state.summaries()[1].second,
            (std::vector<AnnotationId>{fx.u1, fx.u2, fx.u3}));
}

}  // namespace
}  // namespace prox
