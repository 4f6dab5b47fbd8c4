/// \file ddp_analysis.cpp
/// \brief The data-dependent-process use case of Example 5.2.2: DDP
/// provenance (sums of execution products over tropical × boolean
/// semirings) is summarized by grouping cost variables of similar cost and
/// database variables, and then used to explore hypothetical modifications
/// ("what is the cheapest execution if these tuples are absent?").

#include <cstdio>

#include "datasets/ddp.h"
#include "ir/ddp_expr.h"
#include "summarize/distance.h"
#include "summarize/summarizer.h"

using namespace prox;

int main() {
  // Generate the provenance from an actual DDP state machine (the [17]
  // substrate): executions are the machine's accepting paths.
  DdpConfig config;
  config.num_executions = 10;
  config.from_machine = true;
  config.seed = 21;
  Dataset ds = DdpGenerator::Generate(config);

  // Datasets and summaries are flat prox::ir expressions; AsDdp() reads
  // their DDP structure.
  const ir::IrDdpExpression* ddp = ds.provenance->AsDdp();
  std::printf("DDP provenance: %zu executions, size %lld:\n  %s\n\n",
              ddp->num_executions(),
              static_cast<long long>(ds.provenance->Size()),
              ds.provenance->ToString(*ds.registry).c_str());

  // Summarize (Cancel-Single-Attribute valuations; the bounded cost
  // difference VAL-FUNC of Example 5.2.2).
  std::vector<Valuation> valuations =
      ds.valuation_class->Generate(*ds.provenance, ds.ctx);
  EnumeratedDistance oracle(ds.provenance.get(), ds.registry.get(),
                            ds.val_func.get(), valuations);
  SummarizerOptions options;
  options.w_dist = 0.5;
  options.w_size = 0.5;
  options.max_steps = 8;
  options.phi = ds.phi;
  Summarizer summarizer(ds.provenance.get(), ds.registry.get(), &ds.ctx,
                        &ds.constraints, &oracle, &valuations, options);
  auto outcome = summarizer.Run();
  if (!outcome.ok()) {
    std::printf("summarization failed: %s\n",
                outcome.status().ToString().c_str());
    return 1;
  }
  const ir::IrDdpExpression* summary_ddp = outcome.value().summary->AsDdp();
  std::printf("summary: %zu executions, size %lld, distance %.4f:\n  %s\n\n",
              summary_ddp->num_executions(),
              static_cast<long long>(outcome.value().final_size),
              outcome.value().final_distance,
              outcome.value().summary->ToString(*ds.registry).c_str());

  // Provision: cheapest feasible execution under hypothetical scenarios.
  auto report = [&](const Valuation& v) {
    MaterializedValuation exact_view(v, ds.registry->size());
    MaterializedValuation approx_view =
        outcome.value().state.Transform(v, ds.registry->size());
    EvalResult exact = ds.provenance->Evaluate(exact_view);
    EvalResult approx = outcome.value().summary->Evaluate(approx_view);
    std::printf("  %-28s exact %s   approx %s\n", v.label().c_str(),
                exact.ToString(*ds.registry).c_str(),
                approx.ToString(*ds.registry).c_str());
  };

  std::printf("provisioning ⟨min cost, feasible⟩ under scenarios:\n");
  report(Valuation({}, "baseline (all present)"));

  auto db_vars = ds.registry->AnnotationsInDomain(ds.domain("db_var"));
  report(Valuation({db_vars[0], db_vars[1]},
                   "drop tuples d1, d2"));
  auto cost_vars = ds.registry->AnnotationsInDomain(ds.domain("cost_var"));
  report(Valuation({cost_vars[0]}, "waive user effort c1"));
  std::vector<AnnotationId> all_db(db_vars.begin(), db_vars.end());
  report(Valuation(all_db, "empty database"));
  return 0;
}
