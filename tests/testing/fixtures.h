#ifndef PROX_TESTS_TESTING_FIXTURES_H_
#define PROX_TESTS_TESTING_FIXTURES_H_

#include <memory>
#include <string>
#include <vector>

#include "ir/adopt.h"
#include "provenance/aggregate_expr.h"
#include "provenance/annotation.h"
#include "semantics/constraints.h"
#include "semantics/context.h"
#include "summarize/val_func.h"

namespace prox {
namespace testing_fixtures {

/// The prox::ir form of a provenance builder (AggregateExpression,
/// DdpExpression or a Polynomial), on a fresh pool.
template <typename Builder>
std::unique_ptr<ProvenanceExpression> Flat(const Builder& builder) {
  return ir::Adopt(builder, std::make_shared<ir::TermPool>());
}

/// Owning copies of an aggregate expression's terms, read through its
/// facade (empty when the expression is not an aggregate).
inline std::vector<TensorTerm> TermsOf(const ProvenanceExpression& e) {
  std::vector<TensorTerm> terms;
  const AggregateFacade* agg = e.AsAggregate();
  if (agg == nullptr) return terms;
  for (size_t i = 0; i < agg->agg_num_terms(); ++i) {
    const AggTermView v = agg->agg_term(i);
    TensorTerm t;
    t.monomial = MonomialFromSpan(v.mono, v.mono_len);
    if (v.has_guard) t.guard = GuardFromView(v);
    t.group = v.group;
    t.value = v.value;
    terms.push_back(std::move(t));
  }
  return terms;
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

/// The running example of Chapters 3-4: users U1 (F, Audience),
/// U2 (F, Critic), U3 (M, Audience) rating "Match Point" (3, 5, 3) and U2
/// rating "Blue Jasmine" (4), MAX aggregation, users groupable when they
/// share Gender or Role. `builder` holds the terms; `p0` is its prox::ir
/// form, rebuilt by Rebuild() after further AddRating / AddTerm calls.
struct MovieFixture {
  AnnotationRegistry registry;
  DomainId user_domain;
  DomainId movie_domain;
  AnnotationId u1, u2, u3;
  AnnotationId match_point, blue_jasmine;
  SemanticContext ctx;
  ConstraintSet constraints;
  AggregateExpression builder{AggKind::kMax};
  std::unique_ptr<ProvenanceExpression> p0;

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
    TensorTerm t;
    t.monomial = Monomial({user, movie});
    t.group = movie;
    t.value = AggValue{score, 1.0};
    builder.AddTerm(std::move(t));
  }

  /// Re-canonicalizes the builder and re-adopts it into `p0`.
  void Rebuild() {
    builder.Simplify();
    p0 = Flat(builder);
  }
};

}  // namespace testing_fixtures
}  // namespace prox

#endif  // PROX_TESTS_TESTING_FIXTURES_H_
