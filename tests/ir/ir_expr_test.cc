// Unit tests for the prox::ir flat expressions: adopting an expression
// into another pool must preserve its terms, ToString, Size and Evaluate;
// Apply must produce the
// expected summaries on both the main thread and exec workers
// (copy-on-write + overlay paths); Adopt must copy into the pool it is
// given; and the Size header must actually serve hits. The expected texts
// and evaluations are literals recorded from the pointer-tree reference
// path before it was retired.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "exec/thread_pool.h"
#include "ir/adopt.h"
#include "ir/agg_expr.h"
#include "ir/ddp_expr.h"
#include "ir/poly_expr.h"
#include "ir/term_pool.h"
#include "obs/metrics.h"
#include "semiring/polynomial.h"
#include "testing/fixtures.h"

namespace prox {
namespace {

using testing_fixtures::MovieFixture;

std::shared_ptr<ir::TermPool> NewPool() {
  return std::make_shared<ir::TermPool>();
}

constexpr char kFixtureText[] =
    "U1·MatchPoint ⊗ (3.0, 1) ⊕ U2·MatchPoint ⊗ (5.0, 1) ⊕ "
    "U3·MatchPoint ⊗ (3.0, 1) ⊕ U2·BlueJasmine ⊗ (4.0, 1)";

TEST(IrAdoptTest, AggregateMatchesLegacyByteForByte) {
  MovieFixture f;
  auto adopted = ir::Adopt(*f.p0, NewPool());
  ASSERT_NE(dynamic_cast<const ir::IrAggregateExpression*>(adopted.get()),
            nullptr);

  EXPECT_EQ(adopted->ToString(f.registry), kFixtureText);
  EXPECT_EQ(adopted->Size(), 8);

  std::vector<AnnotationId> anns;
  adopted->CollectAnnotations(&anns);
  EXPECT_EQ(anns, (std::vector<AnnotationId>{f.u1, f.u2, f.u3, f.match_point,
                                             f.blue_jasmine}));

  // Row parity with the source, term by term.
  const ir::IrAggregateExpression& built = *f.p0;
  const ir::IrAggregateExpression* flat = adopted->AsAggregate();
  ASSERT_NE(flat, nullptr);
  ASSERT_EQ(flat->num_terms(), built.num_terms());
  EXPECT_EQ(flat->agg(), built.agg());
  for (size_t i = 0; i < built.num_terms(); ++i) {
    const ir::AggTermView a = built.term(i);
    const ir::AggTermView b = flat->term(i);
    EXPECT_EQ(MonomialFromSpan(b.mono, b.mono_len),
              MonomialFromSpan(a.mono, a.mono_len));
    EXPECT_EQ(b.group, a.group);
    EXPECT_EQ(b.value.value, a.value.value);
    EXPECT_EQ(b.value.count, a.value.count);
    EXPECT_EQ(b.has_guard, a.has_guard);
  }

  // Evaluation under all-true and under cancellations.
  const size_t n = f.registry.size();
  const std::pair<Valuation, const char*> cases[] = {
      {Valuation({}, "all true"), "(MatchPoint: 5.00, BlueJasmine: 4.00)"},
      {Valuation({f.u2}, "cancel U2"),
       "(MatchPoint: 3.00, BlueJasmine: 0.00)"},
      {Valuation({f.u1, f.u3}, "cancel F"),
       "(MatchPoint: 5.00, BlueJasmine: 4.00)"}};
  for (const auto& [v, expected] : cases) {
    MaterializedValuation mat(v, n);
    EXPECT_EQ(adopted->Evaluate(mat).ToString(f.registry), expected)
        << v.label();
  }
}

TEST(IrAdoptTest, AdoptingAnIrExpressionClones) {
  // Adopting an IR expression copies it into the given pool: the copy
  // prints the same, and interning on the copy leaves the source's pool
  // untouched.
  MovieFixture f;
  auto source_pool = NewPool();
  auto adopted = ir::Adopt(*f.p0, source_pool);
  auto copy_pool = NewPool();
  auto again = ir::Adopt(*adopted, copy_pool);
  const auto* flat =
      dynamic_cast<const ir::IrAggregateExpression*>(again.get());
  ASSERT_NE(flat, nullptr);
  EXPECT_EQ(flat->pool(), copy_pool);
  EXPECT_EQ(again->ToString(f.registry), kFixtureText);

  const size_t source_monomials = source_pool->num_monomials();
  AnnotationId all = f.registry.AddSummary(f.user_domain, "All");
  Homomorphism h;
  h.Set(f.u1, all);
  h.Set(f.u2, all);
  h.Set(f.u3, all);
  (void)again->Apply(h);
  EXPECT_EQ(source_pool->num_monomials(), source_monomials);
  EXPECT_GT(copy_pool->num_monomials(), source_monomials);
}

TEST(IrApplyTest, MainThreadApplyMatchesLegacyAndSharesUntouchedRows) {
  MovieFixture f;
  auto pool = NewPool();
  auto adopted = ir::Adopt(*f.p0, pool);

  AnnotationId audience =
      f.registry.AddSummary(f.user_domain, "Audience");
  Homomorphism h;
  h.Set(f.u1, audience);
  h.Set(f.u3, audience);

  auto ir_applied = adopted->Apply(h);
  EXPECT_EQ(ir_applied->ToString(f.registry),
            "U2·MatchPoint ⊗ (5.0, 1) ⊕ MatchPoint·Audience ⊗ (3.0, 2) ⊕ "
            "U2·BlueJasmine ⊗ (4.0, 1)");
  EXPECT_EQ(ir_applied->Size(), 6);

  // Main-thread Apply interns into the shared pool: no overlay.
  const auto* flat =
      dynamic_cast<const ir::IrAggregateExpression*>(ir_applied.get());
  ASSERT_NE(flat, nullptr);
  EXPECT_FALSE(flat->has_overlay());

  // An identity homomorphism shares every interned id: the pool must not
  // grow at all (the copy-on-write fast path).
  const size_t monos_before = pool->num_monomials();
  auto identity_applied = adopted->Apply(Homomorphism::Identity());
  EXPECT_EQ(pool->num_monomials(), monos_before);
  EXPECT_EQ(identity_applied->ToString(f.registry),
            adopted->ToString(f.registry));
}

TEST(IrApplyTest, WorkerApplyUsesOverlayAndMatchesLegacy) {
  MovieFixture f;
  auto adopted = ir::Adopt(*f.p0, NewPool());

  AnnotationId fem = f.registry.AddSummary(f.user_domain, "F");
  Homomorphism h;
  h.Set(f.u1, fem);
  h.Set(f.u2, fem);

  // Run the Apply on an exec worker; the result must resolve its
  // rewritten monomials through an expression-local overlay (workers never
  // intern into the shared pool) yet print/evaluate as expected.
  std::unique_ptr<ProvenanceExpression> worker_result;
  bool ran_on_worker = false;
  exec::PoolRef pool_ref(2);
  exec::ParallelFor(pool_ref.pool(), 0, 1, 1, [&](int64_t) {
    ran_on_worker = exec::InParallelWorker();
    worker_result = adopted->Apply(h);
  });
  ASSERT_NE(worker_result, nullptr);
  EXPECT_EQ(worker_result->ToString(f.registry),
            "U3·MatchPoint ⊗ (3.0, 1) ⊕ MatchPoint·F ⊗ (5.0, 2) ⊕ "
            "BlueJasmine·F ⊗ (4.0, 1)");

  const auto* flat =
      dynamic_cast<const ir::IrAggregateExpression*>(worker_result.get());
  ASSERT_NE(flat, nullptr);
  if (ran_on_worker) {
    EXPECT_TRUE(flat->has_overlay());
  }

  // The overlay result keeps evaluating correctly after further merges on
  // the main thread, and a re-Apply of it gives the expected summary.
  AnnotationId crowd = f.registry.AddSummary(f.user_domain, "Crowd");
  Homomorphism h2;
  h2.Set(fem, crowd);
  h2.Set(f.u3, crowd);
  EXPECT_EQ(worker_result->Apply(h2)->ToString(f.registry),
            "MatchPoint·Crowd ⊗ (5.0, 3) ⊕ BlueJasmine·Crowd ⊗ (4.0, 1)");

  MaterializedValuation all_true(f.registry.size());
  EXPECT_EQ(worker_result->Evaluate(all_true).ToString(f.registry),
            "(MatchPoint: 5.00, BlueJasmine: 4.00)");
}

TEST(IrDdpTest, AdoptApplyEvaluateMatchLegacy) {
  AnnotationRegistry registry;
  DomainId cost_domain = registry.AddDomain("cost_var");
  DomainId db_domain = registry.AddDomain("db_var");
  AnnotationId c1 = registry.Add(cost_domain, "c1").MoveValue();
  AnnotationId c2 = registry.Add(cost_domain, "c2").MoveValue();
  AnnotationId d1 = registry.Add(db_domain, "d1").MoveValue();
  AnnotationId d2 = registry.Add(db_domain, "d2").MoveValue();

  auto built = testing_fixtures::NewDdp();
  built->SetCost(c1, 2.0);
  built->SetCost(c2, 5.0);
  built->BeginExecution();
  built->AddUserTransition(c1);
  built->AddDbTransition(Monomial({d1}), true);
  built->BeginExecution();
  built->AddUserTransition(c2);
  built->AddDbTransition(Monomial({d2}), false);
  built->Canonicalize();

  auto adopted = ir::Adopt(*built, NewPool());
  ASSERT_NE(dynamic_cast<const ir::IrDdpExpression*>(adopted.get()), nullptr);
  EXPECT_EQ(adopted->ToString(registry),
            "⟨c1,1⟩·⟨0,[d1]≠0⟩ + ⟨c2,1⟩·⟨0,[d2]=0⟩");
  EXPECT_EQ(adopted->Size(), 4);
  ASSERT_NE(adopted->AsDdp(), nullptr);
  EXPECT_EQ(adopted->AsDdp()->costs(),
            (std::vector<std::pair<AnnotationId, double>>{{c1, 2.0},
                                                          {c2, 5.0}}));

  const size_t n = registry.size();
  const std::pair<Valuation, const char*> cases[] = {
      {Valuation({}, "all"), "<2.00, true>"},
      {Valuation({d1}, "drop d1"), "<0.00, false>"},
      {Valuation({d1, d2}, "drop both"), "<5.00, true>"},
      {Valuation({c1}, "waive c1"), "<0.00, true>"}};
  for (const auto& [v, expected] : cases) {
    MaterializedValuation mat(v, n);
    EXPECT_EQ(adopted->Evaluate(mat).ToString(registry), expected)
        << v.label();
  }

  // Merging the two db vars exercises the cost max-merge + dedupe path.
  AnnotationId db_all = registry.AddSummary(db_domain, "db");
  Homomorphism h;
  h.Set(d1, db_all);
  h.Set(d2, db_all);
  auto ir_applied = adopted->Apply(h);
  EXPECT_EQ(ir_applied->ToString(registry),
            "⟨c1,1⟩·⟨0,[db]≠0⟩ + ⟨c2,1⟩·⟨0,[db]=0⟩");
  EXPECT_EQ(ir_applied->Size(), 4);

  AnnotationId cost_all = registry.AddSummary(cost_domain, "c");
  Homomorphism hc;
  hc.Set(c1, cost_all);
  hc.Set(c2, cost_all);
  EXPECT_EQ(adopted->Apply(hc)->ToString(registry),
            "⟨c,1⟩·⟨0,[d1]≠0⟩ + ⟨c,1⟩·⟨0,[d2]=0⟩");
}

TEST(IrPolynomialTest, AdoptAndApplyMatchLegacy) {
  AnnotationRegistry registry;
  DomainId d = registry.AddDomain("tuple");
  AnnotationId x = registry.Add(d, "x").MoveValue();
  AnnotationId y = registry.Add(d, "y").MoveValue();
  AnnotationId z = registry.Add(d, "z").MoveValue();

  Polynomial poly;
  poly.AddTerm({x, y}, 2);
  poly.AddTerm({z}, 1);
  poly.AddTerm({x, y}, 1);  // merges: coefficient 3

  auto adopted = ir::Adopt(poly, NewPool());
  ASSERT_NE(dynamic_cast<const ir::IrPolynomialExpression*>(adopted.get()),
            nullptr);
  EXPECT_EQ(adopted->ToString(registry), "3·x·y + z");
  EXPECT_EQ(adopted->Size(), 3);

  MaterializedValuation all_true(registry.size());
  EXPECT_EQ(adopted->Evaluate(all_true).ToString(registry), "4.00");
  MaterializedValuation no_y(Valuation({y}), registry.size());
  EXPECT_EQ(adopted->Evaluate(no_y).ToString(registry), "1.00");

  // Re-adopting an IR polynomial copies it row for row.
  EXPECT_EQ(ir::Adopt(*adopted, NewPool())->ToString(registry), "3·x·y + z");

  AnnotationId s = registry.AddSummary(d, "s");
  Homomorphism h;
  h.Set(x, s);
  h.Set(z, s);
  EXPECT_EQ(adopted->Apply(h)->ToString(registry), "3·y·s + s");
}

TEST(SizeCacheTest, RepeatedSizeCallsCountCacheHits) {
  MovieFixture f;
  obs::Counter* hits = obs::MetricsRegistry::Default().GetCounter(
      "prox_ir_size_cache_hits_total", "");

  // IR expressions serve Size() from the canonical header field — every
  // call counts as a hit.
  const uint64_t before = hits->value();
  (void)f.p0->Size();
  (void)f.p0->Size();
  EXPECT_EQ(hits->value(), before + 2);

  // A rebuilt expression carries its new size in the header.
  const int64_t old_size = f.p0->Size();
  f.p0->AddTerm(Monomial({f.u1, f.blue_jasmine}), f.blue_jasmine,
                AggValue{2.0, 1.0});
  f.Rebuild();
  EXPECT_EQ(f.p0->Size(), old_size + 2);
}

}  // namespace
}  // namespace prox
