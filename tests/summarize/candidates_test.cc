#include "summarize/candidates.h"

#include <gtest/gtest.h>

#include <set>

#include "testing/fixtures.h"

namespace prox {
namespace {

using testing_fixtures::MovieFixture;

TEST(CandidateGeneratorTest, EnumeratesAllowedPairsOnly) {
  MovieFixture fx;
  CandidateGenerator gen(&fx.constraints, &fx.ctx);
  MappingState state(&fx.registry, PhiConfig{});
  auto candidates = gen.Generate(*fx.p0, state, CandidateOptions{});
  // Allowed user pairs: {U1,U2} (Gender:F) and {U1,U3} (Role:Audience);
  // {U2,U3} shares nothing; movies have no rule.
  ASSERT_EQ(candidates.size(), 2u);
  std::set<std::vector<AnnotationId>> roots;
  for (const auto& c : candidates) {
    roots.insert(c.roots);
    EXPECT_TRUE(c.decision.allowed);
    EXPECT_EQ(c.domain, fx.user_domain);
  }
  EXPECT_TRUE(roots.count({fx.u1, fx.u2}));
  EXPECT_TRUE(roots.count({fx.u1, fx.u3}));
}

TEST(CandidateGeneratorTest, NamesComeFromConstraintDecision) {
  MovieFixture fx;
  CandidateGenerator gen(&fx.constraints, &fx.ctx);
  MappingState state(&fx.registry, PhiConfig{});
  auto candidates = gen.Generate(*fx.p0, state, CandidateOptions{});
  std::set<std::string> names;
  for (const auto& c : candidates) names.insert(c.decision.name);
  EXPECT_TRUE(names.count("Gender:F"));
  EXPECT_TRUE(names.count("Role:Audience"));
}

TEST(CandidateGeneratorTest, MergedGroupsCheckedOnUnionOfMembers) {
  MovieFixture fx;
  // After merging U1,U2 -> Female, the only remaining pair is
  // {Female, U3}, whose member union {U1,U2,U3} shares nothing — no
  // candidates.
  AnnotationId female = fx.registry.AddSummary(fx.user_domain, "Female");
  MappingState state(&fx.registry, PhiConfig{});
  state.Merge({fx.u1, fx.u2}, female);
  Homomorphism h;
  h.Set(fx.u1, female);
  h.Set(fx.u2, female);
  auto current = fx.p0->Apply(h);

  CandidateGenerator gen(&fx.constraints, &fx.ctx);
  auto candidates = gen.Generate(*current, state, CandidateOptions{});
  EXPECT_TRUE(candidates.empty());
}

TEST(CandidateGeneratorTest, AudienceGroupCanStillAbsorbNothingButU2) {
  MovieFixture fx;
  // After merging U1,U3 -> Audience: pair {Audience, U2} has member union
  // {U1,U2,U3} — not allowed. No candidates.
  AnnotationId audience = fx.registry.AddSummary(fx.user_domain, "Audience");
  MappingState state(&fx.registry, PhiConfig{});
  state.Merge({fx.u1, fx.u3}, audience);
  Homomorphism h;
  h.Set(fx.u1, audience);
  h.Set(fx.u3, audience);
  auto current = fx.p0->Apply(h);

  CandidateGenerator gen(&fx.constraints, &fx.ctx);
  auto candidates = gen.Generate(*current, state, CandidateOptions{});
  EXPECT_TRUE(candidates.empty());
}

TEST(CandidateGeneratorTest, ThreeWayArityEnumeratesTriples) {
  // Add U4 = (F, Audience): with arity 3, {U1, U2, U4} all share Gender:F
  // and {U1, U3, U4} all share Role:Audience.
  MovieFixture fx;
  uint32_t row =
      fx.ctx.tables.at(fx.user_domain).AddRow({"F", "Audience"}).MoveValue();
  AnnotationId u4 =
      fx.registry.Add(fx.user_domain, "U4", row).MoveValue();
  fx.AddRating(u4, fx.match_point, 4);
  fx.Rebuild();

  CandidateGenerator gen(&fx.constraints, &fx.ctx);
  MappingState state(&fx.registry, PhiConfig{});
  CandidateOptions opts;
  opts.arity = 3;
  auto candidates = gen.Generate(*fx.p0, state, opts);
  std::set<std::vector<AnnotationId>> roots;
  for (const auto& c : candidates) roots.insert(c.roots);
  EXPECT_TRUE(roots.count({fx.u1, fx.u2, u4}));
  EXPECT_TRUE(roots.count({fx.u1, fx.u3, u4}));
  EXPECT_FALSE(roots.count({fx.u1, fx.u2, fx.u3}));
}

TEST(CandidateGeneratorTest, MaxCandidatesCapsDeterministically) {
  MovieFixture fx;
  CandidateGenerator gen(&fx.constraints, &fx.ctx);
  MappingState state(&fx.registry, PhiConfig{});
  CandidateOptions opts;
  opts.max_candidates = 1;
  auto first = gen.Generate(*fx.p0, state, opts);
  auto second = gen.Generate(*fx.p0, state, opts);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(first[0].roots, second[0].roots);
}

TEST(CandidateGeneratorTest, RootsAreSortedAndDeterministicOrder) {
  MovieFixture fx;
  CandidateGenerator gen(&fx.constraints, &fx.ctx);
  MappingState state(&fx.registry, PhiConfig{});
  auto a = gen.Generate(*fx.p0, state, CandidateOptions{});
  auto b = gen.Generate(*fx.p0, state, CandidateOptions{});
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].roots, b[i].roots);
    EXPECT_TRUE(std::is_sorted(a[i].roots.begin(), a[i].roots.end()));
  }
}

}  // namespace
}  // namespace prox
