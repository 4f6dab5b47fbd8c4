/// \file lineage_summarization.cpp
/// \brief From query lineage to summaries: run a positive relational
/// algebra query with semiring provenance tracking ([21] — the model
/// Chapter 2 builds on), take a result tuple's ℕ[Ann] lineage polynomial,
/// and summarize it with Algorithm 1 — the approximate-lineage use case
/// the related-work chapter contrasts with [26].

#include <cstdio>

#include "ir/adopt.h"
#include "summarize/distance.h"
#include "summarize/summarizer.h"
#include "summarize/val_func.h"
#include "summarize/valuation_class.h"
#include "workflow/relalg.h"

using namespace prox;

int main() {
  AnnotationRegistry registry;
  DomainId claims_domain = registry.AddDomain("claim");
  DomainId sources_domain = registry.AddDomain("source");

  // Claims(topic, claim) — tuples annotated by which crowd member made
  // them; Sources(claim, source) — supporting sources. Crowd members carry
  // an expertise attribute the summarizer may group by.
  EntityTable members("Members");
  AttrId expertise = members.AddAttribute("Expertise");
  auto add_member_ann = [&](const char* name, const char* level) {
    uint32_t row = members.AddRow({level}).MoveValue();
    return registry.Add(claims_domain, name, row).MoveValue();
  };
  AnnotationId a1 = add_member_ann("alice", "expert");
  AnnotationId a2 = add_member_ann("bob", "expert");
  AnnotationId a3 = add_member_ann("carol", "novice");
  AnnotationId a4 = add_member_ann("dave", "novice");
  AnnotationId s1 = registry.Add(sources_domain, "paper1").MoveValue();
  AnnotationId s2 = registry.Add(sources_domain, "paper2").MoveValue();

  KRelation claims("Claims", {"topic", "claim"});
  claims.InsertBase({"health", "X"}, a1);
  claims.InsertBase({"health", "X"}, a2);
  claims.InsertBase({"health", "X"}, a3);
  claims.InsertBase({"health", "Y"}, a4);
  KRelation sources("Sources", {"claim", "source"});
  sources.InsertBase({"X", "strong"}, s1);
  sources.InsertBase({"Y", "strong"}, s2);

  // Query: which topics have a strongly-sourced claim?
  //   π_topic(σ_{source=strong}(Claims ⋈ Sources))
  auto joined = relalg::NaturalJoin(claims, sources).MoveValue();
  auto strong = relalg::SelectEq(joined, "source", "strong").MoveValue();
  auto result = relalg::Project(strong, {"topic"}).MoveValue();
  std::printf("query result with lineage:\n%s\n",
              result.ToString(registry).c_str());

  // Summarize the lineage of the "health" tuple.
  std::unique_ptr<ProvenanceExpression> lineage = ir::Adopt(
      result.tuples()[0].provenance, std::make_shared<ir::TermPool>());
  std::printf("lineage of (health): %s  (size %lld)\n\n",
              lineage->ToString(registry).c_str(),
              static_cast<long long>(lineage->Size()));

  SemanticContext ctx;
  ctx.registry = &registry;
  ctx.tables.emplace(claims_domain, std::move(members));
  ConstraintSet constraints;
  constraints.SetRule(claims_domain, std::make_unique<SharedAttributeRule>(
                                         std::vector<AttrId>{expertise}));

  CancelSingleAnnotation cls(std::vector<DomainId>{claims_domain});
  std::vector<Valuation> valuations = cls.Generate(*lineage, ctx);
  AbsoluteDifferenceValFunc vf;  // lineage evaluates to derivation counts
  EnumeratedDistance oracle(lineage.get(), &registry, &vf, valuations);
  SummarizerOptions options;
  options.w_dist = 0.7;
  options.w_size = 0.3;
  options.max_steps = 3;
  Summarizer summarizer(lineage.get(), &registry, &ctx, &constraints, &oracle,
                        &valuations, options);
  auto outcome = summarizer.Run();
  if (!outcome.ok()) {
    std::printf("summarization failed: %s\n",
                outcome.status().ToString().c_str());
    return 1;
  }
  std::printf("summarized lineage (size %lld, distance %.4f):\n  %s\n",
              static_cast<long long>(outcome.value().final_size),
              outcome.value().final_distance,
              outcome.value().summary->ToString(registry).c_str());
  for (const StepRecord& step : outcome.value().steps) {
    std::printf("  step %d -> %s\n", step.step, step.summary_name.c_str());
  }

  // Approximate influence check (the [26] question "which facts are most
  // influential"): cancel the expert group vs one novice.
  auto count_without = [&](std::vector<AnnotationId> dead,
                           const char* label) {
    Valuation v(std::move(dead), label);
    MaterializedValuation exact_view(v, registry.size());
    MaterializedValuation approx_view =
        outcome.value().state.Transform(v, registry.size());
    std::printf("  %-24s exact %.0f derivations, approx %.0f\n", label,
                lineage->Evaluate(exact_view).scalar(),
                outcome.value().summary->Evaluate(approx_view).scalar());
  };
  std::printf("\nderivation counts under hypothetical deletions:\n");
  count_without({}, "none deleted");
  count_without({a1, a2}, "experts deleted");
  count_without({a3}, "carol deleted");
  (void)s2;
  return 0;
}
