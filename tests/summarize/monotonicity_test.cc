// Property-based reproduction of Proposition 4.2.2: along any chain of
// homomorphisms p0 -> p1 -> ... the distance from p0 is non-decreasing and
// the size non-increasing, for every shipped VAL-FUNC, φ ∈ {OR, AND} and
// aggregation ∈ {MAX, MIN, SUM}.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "common/rng.h"
#include "ir/agg_expr.h"
#include "summarize/distance.h"
#include "summarize/mapping_state.h"
#include "summarize/val_func.h"
#include "summarize/valuation_class.h"
#include "testing/fixtures.h"

namespace prox {
namespace {

enum class FuncKind { kAbsolute, kDisagreement, kEuclidean };

std::unique_ptr<ValFunc> MakeFunc(FuncKind kind) {
  switch (kind) {
    case FuncKind::kAbsolute:
      return std::make_unique<AbsoluteDifferenceValFunc>();
    case FuncKind::kDisagreement:
      return std::make_unique<DisagreementValFunc>();
    case FuncKind::kEuclidean:
      return std::make_unique<EuclideanValFunc>();
  }
  return nullptr;
}

using Params = std::tuple<AggKind, PhiKind, FuncKind, int>;

class MonotonicityTest : public ::testing::TestWithParam<Params> {};

TEST_P(MonotonicityTest, DistanceGrowsSizeShrinksAlongMergeChains) {
  const auto [agg, phi_kind, func_kind, seed] = GetParam();
  Rng rng(seed);

  // Random expression: `n` users rating `m` movies.
  AnnotationRegistry registry;
  DomainId user_domain = registry.AddDomain("user");
  DomainId movie_domain = registry.AddDomain("movie");
  const int n = 6, m = 3;
  std::vector<AnnotationId> users, movies;
  for (int u = 0; u < n; ++u) {
    users.push_back(
        registry.Add(user_domain, "U" + std::to_string(u)).MoveValue());
  }
  for (int v = 0; v < m; ++v) {
    movies.push_back(
        registry.Add(movie_domain, "M" + std::to_string(v)).MoveValue());
  }
  auto p0 = testing_fixtures::NewAggregate(agg);
  for (int u = 0; u < n; ++u) {
    int count = 1 + static_cast<int>(rng.PickIndex(m));
    for (int r = 0; r < count; ++r) {
      AnnotationId movie = movies[rng.PickIndex(m)];
      const double score = 1.0 + static_cast<double>(rng.PickIndex(5));
      p0->AddTerm(Monomial({users[u], movie}), movie, {score, 1.0});
    }
  }
  p0->Canonicalize();

  SemanticContext ctx;
  ctx.registry = &registry;
  CancelSingleAnnotation cls(std::vector<DomainId>{user_domain});
  auto valuations = cls.Generate(*p0, ctx);
  auto vf = MakeFunc(func_kind);
  EnumeratedDistance oracle(p0.get(), &registry, vf.get(), valuations);

  PhiConfig phi;
  phi.fallback = phi_kind;
  MappingState state(&registry, phi);
  std::unique_ptr<ProvenanceExpression> current = p0->Clone();

  double prev_dist = oracle.Distance(*current, state);
  int64_t prev_size = current->Size();
  EXPECT_EQ(prev_dist, 0.0);

  // Random chain of user merges until one root remains.
  std::vector<AnnotationId> roots = users;
  while (roots.size() > 1) {
    size_t i = rng.PickIndex(roots.size());
    size_t j = rng.PickIndex(roots.size() - 1);
    if (j >= i) ++j;
    AnnotationId summary = registry.AddSummary(user_domain, "G");
    state.Merge({roots[i], roots[j]}, summary);
    Homomorphism h;
    h.Set(roots[i], summary);
    h.Set(roots[j], summary);
    current = current->Apply(h);

    roots.erase(roots.begin() + std::max(i, j));
    roots.erase(roots.begin() + std::min(i, j));
    roots.push_back(summary);

    double dist = oracle.Distance(*current, state);
    int64_t size = current->Size();
    EXPECT_GE(dist, prev_dist - 1e-12)
        << "distance decreased along the chain (agg="
        << AggKindToString(agg) << ")";
    EXPECT_LE(size, prev_size) << "size increased along the chain";
    prev_dist = dist;
    prev_size = size;
  }
}

// MAX and SUM are monotone for both φ combiners (Proposition 4.2.2's
// cases cover them directly).
INSTANTIATE_TEST_SUITE_P(
    MaxSum, MonotonicityTest,
    ::testing::Combine(
        ::testing::Values(AggKind::kMax, AggKind::kSum),
        ::testing::Values(PhiKind::kOr, PhiKind::kAnd),
        ::testing::Values(FuncKind::kAbsolute, FuncKind::kDisagreement,
                          FuncKind::kEuclidean),
        ::testing::Range(0, 4)));

// MIN is monotone with φ = ∨ (the thesis's case c). With φ = ∧ it is NOT:
// see MinWithAndCounterexample below — the proposition's "similar proof
// exists for φ = ∧" does not extend to MIN under the empty-coordinate-
// evaluates-to-0 convention the thesis itself uses (Example 5.2.1).
INSTANTIATE_TEST_SUITE_P(
    MinOr, MonotonicityTest,
    ::testing::Combine(
        ::testing::Values(AggKind::kMin), ::testing::Values(PhiKind::kOr),
        ::testing::Values(FuncKind::kAbsolute, FuncKind::kDisagreement,
                          FuncKind::kEuclidean),
        ::testing::Range(0, 4)));

TEST(MonotonicityCounterexampleTest, MinWithAndIsNotMonotone) {
  // MIN + φ=∧ counterexample. Movie M1 is rated by d (10) and e (3); users
  // b and c rate M2 and are both cancelled by the valuation v.
  //   v(p0):  M1 = min(10, 3) = 3.
  //   p1 = merge {e, b}: the ∧-group is false under v, e's tensor dies,
  //        M1 = 10 → error |10 − 3| = 7.
  //   p2 = further merge {d, c}: d's tensor dies too, M1 empties to 0 →
  //        error |0 − 3| = 3 < 7. Distance DECREASED along the chain.
  AnnotationRegistry registry;
  DomainId user_domain = registry.AddDomain("user");
  DomainId movie_domain = registry.AddDomain("movie");
  AnnotationId d = registry.Add(user_domain, "d").MoveValue();
  AnnotationId e = registry.Add(user_domain, "e").MoveValue();
  AnnotationId b = registry.Add(user_domain, "b").MoveValue();
  AnnotationId c = registry.Add(user_domain, "c").MoveValue();
  AnnotationId m1 = registry.Add(movie_domain, "M1").MoveValue();
  AnnotationId m2 = registry.Add(movie_domain, "M2").MoveValue();

  auto p0 = testing_fixtures::NewAggregate(AggKind::kMin);
  auto add = [&](AnnotationId user, AnnotationId movie, double score) {
    p0->AddTerm(Monomial({user, movie}), movie, {score, 1});
  };
  add(d, m1, 10);
  add(e, m1, 3);
  add(b, m2, 1);
  add(c, m2, 1);
  p0->Canonicalize();

  SemanticContext ctx;
  ctx.registry = &registry;
  std::vector<Valuation> valuations = {Valuation({b, c}, "cancel b,c")};
  AbsoluteDifferenceValFunc vf;
  EnumeratedDistance oracle(p0.get(), &registry, &vf, valuations);

  PhiConfig phi;
  phi.fallback = PhiKind::kAnd;
  MappingState state(&registry, phi);

  AnnotationId g1 = registry.AddSummary(user_domain, "G1");
  state.Merge({e, b}, g1);
  Homomorphism h1;
  h1.Set(e, g1);
  h1.Set(b, g1);
  auto p1 = p0->Apply(h1);
  double d1 = oracle.Distance(*p1, state);

  AnnotationId g2 = registry.AddSummary(user_domain, "G2");
  state.Merge({d, c}, g2);
  Homomorphism h2;
  h2.Set(d, g2);
  h2.Set(c, g2);
  auto p2 = p1->Apply(h2);
  double d2 = oracle.Distance(*p2, state);

  EXPECT_GT(d1, 0.0);
  EXPECT_LT(d2, d1);  // the violation Proposition 4.2.2 does not cover
}

}  // namespace
}  // namespace prox
