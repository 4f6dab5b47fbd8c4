// Proposition 4.1.1 states DIST-COMP is #P-hard, by reduction from #DNF:
// mapping every variable of a (positive) DNF formula f to a single summary
// annotation A makes the exact distance (w.r.t. all valuations and the
// disagreement VAL-FUNC) reveal the number of satisfying valuations of f.
// This test *executes* the reduction: it recovers #SAT(f) from
// dist(f, h(f)) and checks it against brute-force model counting.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/rng.h"
#include "ir/agg_expr.h"
#include "summarize/distance.h"
#include "summarize/val_func.h"
#include "summarize/valuation_class.h"
#include "testing/fixtures.h"

namespace prox {
namespace {

struct Dnf {
  int num_vars;
  std::vector<std::vector<int>> monomials;  // variable indices, non-empty

  bool Satisfied(uint64_t mask) const {
    for (const auto& mono : monomials) {
      bool all = true;
      for (int v : mono) {
        if (!(mask & (uint64_t{1} << v))) {
          all = false;
          break;
        }
      }
      if (all) return true;
    }
    return false;
  }

  uint64_t CountSatisfying() const {
    uint64_t count = 0;
    for (uint64_t mask = 0; mask < (uint64_t{1} << num_vars); ++mask) {
      if (Satisfied(mask)) ++count;
    }
    return count;
  }
};

Dnf RandomDnf(Rng* rng, int num_vars, int num_monomials) {
  Dnf f;
  for (int m = 0; m < num_monomials; ++m) {
    int width = 1 + static_cast<int>(rng->PickIndex(3));
    std::vector<int> mono;
    for (int i = 0; i < width; ++i) {
      mono.push_back(static_cast<int>(rng->PickIndex(num_vars)));
    }
    f.monomials.push_back(std::move(mono));
  }
  // Compact to the variables actually used, so the valuation space of the
  // encoded expression matches 2^{num_vars} exactly.
  std::map<int, int> remap;
  for (auto& mono : f.monomials) {
    for (int& v : mono) {
      auto [it, inserted] = remap.emplace(v, static_cast<int>(remap.size()));
      v = it->second;
    }
  }
  f.num_vars = static_cast<int>(remap.size());
  return f;
}

class HardnessReductionTest : public ::testing::TestWithParam<int> {};

TEST_P(HardnessReductionTest, DistanceRevealsModelCount) {
  Rng rng(GetParam());
  Dnf f = RandomDnf(&rng, 3 + static_cast<int>(rng.PickIndex(5)),
                    2 + rng.PickIndex(4));
  const int num_vars = f.num_vars;

  // Encode f as a boolean-valued provenance expression (MAX aggregation of
  // 1-valued tensors: evaluates to 1 iff some monomial is satisfied).
  AnnotationRegistry registry;
  DomainId domain = registry.AddDomain("var");
  std::vector<AnnotationId> vars;
  for (int v = 0; v < num_vars; ++v) {
    vars.push_back(
        registry.Add(domain, "x" + std::to_string(v)).MoveValue());
  }
  auto expr = testing_fixtures::NewAggregate(AggKind::kMax);
  for (const auto& mono : f.monomials) {
    std::vector<AnnotationId> factors;
    for (int v : mono) factors.push_back(vars[v]);
    expr->AddTerm(Monomial(std::move(factors)), kNoAnnotation, {1, 1});
  }
  expr->Canonicalize();

  // h: every variable -> A, with φ = OR.
  SemanticContext ctx;
  ctx.registry = &registry;
  ExhaustiveValuations all_cls;
  auto valuations = all_cls.Generate(*expr, ctx);
  ASSERT_EQ(valuations.size(), uint64_t{1} << num_vars);

  DisagreementValFunc vf;
  EnumeratedDistance oracle(expr.get(), &registry, &vf, valuations);

  AnnotationId a = registry.AddSummary(domain, "A");
  MappingState state(&registry, PhiConfig{});
  state.Merge(vars, a);
  Homomorphism h;
  for (AnnotationId v : vars) h.Set(v, a);
  auto hf = expr->Apply(h);

  const double dist = oracle.Distance(*hf, state);
  const uint64_t total = uint64_t{1} << num_vars;

  // Positive DNF: h(f) is true iff some variable is true, so the
  // disagreeing valuations are exactly the unsatisfying ones except the
  // all-false valuation (where both sides are 0).
  const uint64_t unsat_from_dist =
      static_cast<uint64_t>(std::llround(dist * total)) + 1;
  const uint64_t sat_from_dist = total - unsat_from_dist;
  EXPECT_EQ(sat_from_dist, f.CountSatisfying());
}

INSTANTIATE_TEST_SUITE_P(RandomFormulas, HardnessReductionTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace prox
