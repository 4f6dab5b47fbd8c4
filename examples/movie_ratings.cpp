/// \file movie_ratings.cpp
/// \brief End-to-end scenario from the thesis's introduction: a
/// crowd-sourced movie-rating application (the Figure 2.1 workflow) runs
/// and produces guarded semiring provenance; the provenance is then
/// summarized with Algorithm 1 under the users' attribute semantics, and
/// used for provisioning hypothetical scenarios ("what if U2's reviews
/// are spam?") both exactly and approximately.

#include <cstdio>

#include "summarize/distance.h"
#include "summarize/summarizer.h"
#include "summarize/val_func.h"
#include "summarize/valuation_class.h"
#include "workflow/movie_review_workflow.h"

using namespace prox;

int main() {
  AnnotationRegistry registry;

  // --- 1. The application: users, platforms, raw reviews. -----------------
  MovieReviewWorkflowBuilder builder(&registry);
  struct UserSpec {
    const char* uid;
    const char* gender;
    const char* role;
  };
  const UserSpec user_specs[] = {
      {"1", "F", "audience"}, {"2", "F", "audience"}, {"3", "M", "audience"},
      {"4", "M", "audience"}, {"5", "F", "critic"},   {"6", "M", "critic"}};
  for (const auto& u : user_specs) builder.AddUser(u.uid, u.gender, u.role);

  builder.AddPlatform(
      "imdb", "audience",
      {{"1", "Match Point", 3}, {"1", "Scoop", 4},        {"1", "Zelig", 4},
       {"2", "Match Point", 5}, {"2", "Blue Jasmine", 4}, {"2", "Scoop", 3},
       {"3", "Match Point", 3}, {"3", "Zelig", 2},        {"3", "Scoop", 5},
       {"4", "Blue Jasmine", 2}, {"4", "Zelig", 3},       {"4", "Scoop", 2}});
  builder.AddPlatform("times", "critic",
                      {{"5", "Match Point", 4},
                       {"5", "Blue Jasmine", 5},
                       {"5", "Zelig", 3},
                       {"6", "Match Point", 2},
                       {"6", "Scoop", 3},
                       {"6", "Zelig", 4}});

  auto run = builder.Run(AggKind::kMax);
  if (!run.ok()) {
    std::printf("workflow failed: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const ProvenanceExpression& p0 = *run.value().provenance;
  std::printf("workflow produced provenance of size %lld over %zu "
              "annotations, e.g.:\n  %.200s…\n\n",
              static_cast<long long>(p0.Size()), registry.size(),
              p0.ToString(registry).c_str());

  // --- 2. Semantics: user attributes constrain the summarization. ---------
  DomainId user_domain = registry.FindDomain("user").MoveValue();
  SemanticContext ctx;
  ctx.registry = &registry;
  AttrId gender = run.value().user_attributes.FindAttribute("Gender")
                      .MoveValue();
  AttrId role = run.value().user_attributes.FindAttribute("Role")
                    .MoveValue();
  ctx.tables.emplace(user_domain, std::move(run.value().user_attributes));
  ConstraintSet constraints;
  constraints.SetRule(user_domain, std::make_unique<SharedAttributeRule>(
                                       std::vector<AttrId>{role, gender}));

  // --- 3. Summarize with Algorithm 1 (distance-first). --------------------
  CancelSingleAnnotation valuation_class(std::vector<DomainId>{user_domain});
  std::vector<Valuation> valuations = valuation_class.Generate(p0, ctx);
  EuclideanValFunc val_func;
  EnumeratedDistance oracle(&p0, &registry, &val_func, valuations);

  SummarizerOptions options;
  options.w_dist = 0.8;
  options.w_size = 0.2;
  options.max_steps = 4;
  Summarizer summarizer(&p0, &registry, &ctx, &constraints, &oracle,
                        &valuations, options);
  auto outcome = summarizer.Run();
  if (!outcome.ok()) {
    std::printf("summarization failed: %s\n",
                outcome.status().ToString().c_str());
    return 1;
  }
  std::printf("summary: size %lld (from %lld), normalized distance %.4f\n",
              static_cast<long long>(outcome.value().final_size),
              static_cast<long long>(p0.Size()),
              outcome.value().final_distance);
  for (const StepRecord& step : outcome.value().steps) {
    std::printf("  step %d merged %zu annotations -> \"%s\" "
                "(dist %.4f, size %lld)\n",
                step.step, step.merged_roots.size(),
                step.summary_name.c_str(), step.distance,
                static_cast<long long>(step.size));
  }
  std::printf("\nsummary expression:\n  %s\n",
              outcome.value().summary->ToString(registry).c_str());

  // --- 4. Provision: discard suspected spam. ------------------------------
  AnnotationId u2 = registry.Find("U_2").MoveValue();
  Valuation spam({u2}, "U_2 is a spammer");
  MaterializedValuation exact_view(spam, registry.size());
  MaterializedValuation approx_view =
      outcome.value().state.Transform(spam, registry.size());
  std::printf("\nprovisioning \"%s\":\n", spam.label().c_str());
  std::printf("  exact : %s\n",
              p0.Evaluate(exact_view).ToString(registry).c_str());
  std::printf("  approx: %s\n",
              outcome.value()
                  .summary->Evaluate(approx_view)
                  .ToString(registry)
                  .c_str());
  return 0;
}
