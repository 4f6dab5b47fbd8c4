#ifndef PROX_TESTS_TESTING_FIXTURES_H_
#define PROX_TESTS_TESTING_FIXTURES_H_

#include <memory>
#include <string>
#include <vector>

#include "ir/agg_expr.h"
#include "ir/ddp_expr.h"
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

/// A VAL-FUNC that forwards to `inner` but has no batch counterpart
/// (batch_kind() stays kNone), so the distance oracles price every call
/// through their per-valuation scalar loop: the reference the batch
/// kernels are checked against bit for bit.
class ScalarReferenceValFunc : public ValFunc {
 public:
  explicit ScalarReferenceValFunc(const ValFunc* inner) : inner_(inner) {}

  double Compute(const EvalResult& orig,
                 const EvalResult& summ) const override {
    return inner_->Compute(orig, summ);
  }
  double MaxError(const EvalResult& all_true_orig) const override {
    return inner_->MaxError(all_true_orig);
  }
  std::string name() const override { return inner_->name(); }

 private:
  const ValFunc* inner_;
};

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
