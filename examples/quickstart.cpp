/// \file quickstart.cpp
/// \brief Five-minute tour of the PROX library: build a tiny movie-review
/// provenance expression by hand (the running example of Chapters 2-4),
/// summarize it with Algorithm 1, and provision against a hypothetical
/// scenario.

#include <cstdio>

#include "ir/agg_expr.h"
#include "summarize/distance.h"
#include "summarize/summarizer.h"
#include "summarize/val_func.h"
#include "summarize/valuation_class.h"

using namespace prox;

int main() {
  // --- 1. Annotations: three users reviewing two movies. -----------------
  AnnotationRegistry registry;
  DomainId user_domain = registry.AddDomain("user");
  DomainId movie_domain = registry.AddDomain("movie");

  // Users carry gender / role attributes (the semantics that make
  // summaries meaningful).
  EntityTable users("Users");
  AttrId gender = users.AddAttribute("Gender");
  AttrId role = users.AddAttribute("Role");
  (void)gender;
  (void)role;
  AnnotationId u1 = registry.Add(user_domain, "U1",
                                 users.AddRow({"F", "Audience"}).MoveValue())
                        .MoveValue();
  AnnotationId u2 = registry.Add(user_domain, "U2",
                                 users.AddRow({"F", "Critic"}).MoveValue())
                        .MoveValue();
  AnnotationId u3 = registry.Add(user_domain, "U3",
                                 users.AddRow({"M", "Audience"}).MoveValue())
                        .MoveValue();

  AnnotationId match_point =
      registry.Add(movie_domain, "Match Point", kNoEntity).MoveValue();
  AnnotationId blue_jasmine =
      registry.Add(movie_domain, "Blue Jasmine", kNoEntity).MoveValue();

  // --- 2. Provenance: P0 from Example 4.2.3. -----------------------------
  //   U1⊗(3,1) ⊕ U2⊗(5,1) ⊕ U3⊗(3,1)  for "Match Point"
  //   U2⊗(4,1)                         for "Blue Jasmine"
  // Terms are appended straight into the flat expression every
  // summarization API works on (its monomials are interned into a
  // TermPool); one Canonicalize() sorts and merges them.
  auto p0 = std::make_unique<ir::IrAggregateExpression>(
      AggKind::kMax, std::make_shared<ir::TermPool>());
  auto rate = [&](AnnotationId user, AnnotationId movie, double score) {
    p0->AddTerm(Monomial({user, movie}), /*group=*/movie,
                AggValue{score, 1.0});
  };
  rate(u1, match_point, 3);
  rate(u2, match_point, 5);
  rate(u3, match_point, 3);
  rate(u2, blue_jasmine, 4);
  p0->Canonicalize();
  std::printf("original provenance (size %lld):\n  %s\n\n",
              static_cast<long long>(p0->Size()),
              p0->ToString(registry).c_str());

  // --- 3. Semantics: users may be grouped when they share gender or role.
  SemanticContext ctx;
  ctx.registry = &registry;
  ctx.tables.emplace(user_domain, std::move(users));
  ConstraintSet constraints;
  constraints.SetRule(user_domain, std::make_unique<SharedAttributeRule>(
                                       std::vector<AttrId>{0, 1}));

  // --- 4. Distance: Euclidean VAL-FUNC over cancel-single-annotation
  // valuations (the Example 4.2.3 setting).
  CancelSingleAnnotation valuation_class;
  std::vector<Valuation> valuations = valuation_class.Generate(*p0, ctx);
  EuclideanValFunc val_func;
  EnumeratedDistance oracle(p0.get(), &registry, &val_func, valuations);

  // --- 5. Summarize, favoring distance (wDist = 1). ----------------------
  SummarizerOptions options;
  options.w_dist = 1.0;
  options.w_size = 0.0;
  options.max_steps = 2;
  Summarizer summarizer(p0.get(), &registry, &ctx, &constraints, &oracle,
                        &valuations, options);
  auto outcome = summarizer.Run();
  if (!outcome.ok()) {
    std::printf("summarization failed: %s\n",
                outcome.status().ToString().c_str());
    return 1;
  }
  const SummaryOutcome& result = outcome.value();
  std::printf("summary (size %lld, distance %.4f):\n  %s\n\n",
              static_cast<long long>(result.final_size),
              result.final_distance,
              result.summary->ToString(registry).c_str());
  for (const StepRecord& step : result.steps) {
    std::printf("  step %d: merged %zu annotations into \"%s\" "
                "(dist %.4f, size %lld)\n",
                step.step, step.merged_roots.size(),
                step.summary_name.c_str(), step.distance,
                static_cast<long long>(step.size));
  }

  // --- 6. Provision: what if U2's review is spam? -------------------------
  Valuation cancel_u2({u2}, "cancel U2");
  MaterializedValuation original_view(cancel_u2, registry.size());
  EvalResult original = p0->Evaluate(original_view);
  MaterializedValuation summary_view =
      result.state.Transform(cancel_u2, registry.size());
  EvalResult approx = result.summary->Evaluate(summary_view);
  std::printf("\nprovisioning \"U2 is a spammer\":\n");
  std::printf("  exact (on original): %s\n",
              original.ToString(registry).c_str());
  std::printf("  approx (on summary): %s\n",
              approx.ToString(registry).c_str());
  return 0;
}
