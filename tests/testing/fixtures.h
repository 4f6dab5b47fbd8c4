#ifndef PROX_TESTS_TESTING_FIXTURES_H_
#define PROX_TESTS_TESTING_FIXTURES_H_

#include <memory>
#include <string>
#include <vector>

#include "datasets/dataset.h"
#include "ir/agg_expr.h"
#include "ir/ddp_expr.h"
#include "kernels/batch_eval.h"
#include "provenance/annotation.h"
#include "semantics/constraints.h"
#include "semantics/context.h"
#include "summarize/val_func.h"
#include "summarize/valuation_class.h"

namespace prox {
namespace testing_fixtures {

/// A fresh, empty aggregate expression on its own pool: AddTerm rows,
/// then Canonicalize().
inline std::unique_ptr<ir::IrAggregateExpression> NewAggregate(AggKind agg) {
  return std::make_unique<ir::IrAggregateExpression>(
      agg, std::make_shared<ir::TermPool>());
}

/// A fresh, empty DDP expression on its own pool: BeginExecution and
/// Add*Transition, SetCost, then Canonicalize().
inline std::unique_ptr<ir::IrDdpExpression> NewDdp() {
  return std::make_unique<ir::IrDdpExpression>(
      std::make_shared<ir::TermPool>());
}

/// `src`'s rows under another aggregation, canonical, on a fresh pool.
inline std::unique_ptr<ir::IrAggregateExpression> WithAgg(
    const ir::IrAggregateExpression& src, AggKind agg) {
  auto out = NewAggregate(agg);
  for (size_t i = 0; i < src.num_terms(); ++i) {
    const auto r = src.InternRow(i, out->pool().get());
    out->AddTermIds(r.mono, r.guard, r.group, r.value);
  }
  out->Canonicalize();
  return out;
}

/// `base`, an evaluation of p₀, projected into the coordinate space of
/// `cand` = h(p₀) the way the distance oracle projects it: packed into one
/// lane of a block, folded through kernels::ProjectBlock and read back.
/// An empty vector when no group remap reconciles the two layouts.
inline EvalResult ProjectThroughBlock(const ProvenanceExpression& cand,
                                      const EvalResult& base,
                                      const Homomorphism& h) {
  std::vector<AnnotationId> groups;
  if (base.kind() == EvalResult::Kind::kVector) {
    for (const EvalResult::Coord& c : base.coords()) groups.push_back(c.group);
  }
  kernels::BlockEval block;
  const kernels::BatchProgram program = cand.AsBatchEval()->LowerBatch();
  kernels::GroupRemap remap;
  if (!kernels::PackEvalBlock(&base, 1, base.kind(), groups.data(),
                              groups.size(), &block) ||
      !kernels::BuildGroupRemap(base.kind(), groups.data(), groups.size(),
                                program, h, &remap)) {
    return EvalResult::Vector({});
  }
  kernels::BlockEval scratch;
  return kernels::ProjectBlock(remap, program, block, &scratch).Extract(0);
}

/// Replaces the dataset's row values with ones whose fold order shows in
/// the bits. MovieLens ratings are small integers, which SUM and AVG add
/// exactly in any order; these are non-integral, one row is large enough
/// (2^53 + ...) that its neighbours' adds round against it, and every
/// ninth row contributes -0.0 or +0.0, which MAX and MIN keep or replace
/// by fold order.
inline void MakeFoldOrderVisible(Dataset* ds) {
  const ir::IrAggregateExpression& src = *ds->provenance->AsAggregate();
  auto out = std::make_unique<ir::IrAggregateExpression>(src.agg(), src.pool());
  for (size_t i = 0; i < src.num_terms(); ++i) {
    const ir::IrAggregateExpression::InternedRow row =
        src.InternRow(i, src.pool().get());
    AggValue v = row.value;
    v.value = v.value * 0.1 + 0.013 * static_cast<double>(i % 7);
    if (i % 9 == 2) v.value = -0.0;
    if (i % 9 == 5) v.value = 0.0;
    if (i == src.num_terms() / 2) v.value = 9007199254740993.0 * 1.5;
    out->AddTermIds(row.mono, row.guard, row.group, v);
  }
  out->Canonicalize();
  ds->provenance = std::move(out);
}

/// `num_samples` valuations drawn by SampledValuations (default seed) over
/// `p0`'s annotations: the Monte-Carlo set of the sampled test cases.
inline std::vector<Valuation> DrawSamples(const ProvenanceExpression& p0,
                                          const SemanticContext& ctx,
                                          int num_samples) {
  SampledValuations::Options options;
  options.num_samples = num_samples;
  return SampledValuations::Create(options).MoveValue().Generate(p0, ctx);
}

/// The running example of Chapters 3-4: users U1 (F, Audience),
/// U2 (F, Critic), U3 (M, Audience) rating "Match Point" (3, 5, 3) and U2
/// rating "Blue Jasmine" (4), MAX aggregation, users groupable when they
/// share Gender or Role. `p0` holds the terms; Rebuild() re-canonicalizes
/// it after further AddRating / AddTerm calls.
struct MovieFixture {
  AnnotationRegistry registry;
  DomainId user_domain;
  DomainId movie_domain;
  AnnotationId u1, u2, u3;
  AnnotationId match_point, blue_jasmine;
  SemanticContext ctx;
  ConstraintSet constraints;
  std::unique_ptr<ir::IrAggregateExpression> p0 = NewAggregate(AggKind::kMax);

  MovieFixture() {
    user_domain = registry.AddDomain("user");
    movie_domain = registry.AddDomain("movie");

    EntityTable users("Users");
    AttrId gender = users.AddAttribute("Gender");
    AttrId role = users.AddAttribute("Role");
    u1 = registry.Add(user_domain, "U1",
                      users.AddRow({"F", "Audience"}).MoveValue())
             .MoveValue();
    u2 = registry.Add(user_domain, "U2",
                      users.AddRow({"F", "Critic"}).MoveValue())
             .MoveValue();
    u3 = registry.Add(user_domain, "U3",
                      users.AddRow({"M", "Audience"}).MoveValue())
             .MoveValue();
    match_point = registry.Add(movie_domain, "MatchPoint", kNoEntity)
                      .MoveValue();
    blue_jasmine = registry.Add(movie_domain, "BlueJasmine", kNoEntity)
                       .MoveValue();

    AddRating(u1, match_point, 3);
    AddRating(u2, match_point, 5);
    AddRating(u3, match_point, 3);
    AddRating(u2, blue_jasmine, 4);
    Rebuild();

    ctx.registry = &registry;
    ctx.tables.emplace(user_domain, std::move(users));
    constraints.SetRule(user_domain, std::make_unique<SharedAttributeRule>(
                                         std::vector<AttrId>{gender, role}));
  }

  void AddRating(AnnotationId user, AnnotationId movie, double score) {
    p0->AddTerm(Monomial({user, movie}), movie, AggValue{score, 1.0});
  }

  /// Re-canonicalizes `p0` after further AddRating / AddTerm calls.
  void Rebuild() { p0->Canonicalize(); }
};

}  // namespace testing_fixtures
}  // namespace prox

#endif  // PROX_TESTS_TESTING_FIXTURES_H_
