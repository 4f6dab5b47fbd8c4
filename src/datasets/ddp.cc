#include "datasets/ddp.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ddp/machine.h"
#include "ir/ddp_expr.h"

namespace prox {

namespace {

/// Machine-backed generation: build a random DDP machine and compile its
/// execution provenance (the [17]-faithful path).
std::unique_ptr<ir::IrDdpExpression> GenerateFromMachine(
    const DdpConfig& config, AnnotationRegistry* reg, EntityTable* costs,
    EntityTable* db_table, Rng* rng) {
  RandomMachineConfig machine_config;
  machine_config.num_states = config.machine_states;
  machine_config.num_cost_vars = config.num_cost_vars;
  machine_config.num_db_vars = config.num_db_vars;
  machine_config.max_cost = config.max_cost;
  auto output =
      RandomDdpMachine::Generate(machine_config, reg, costs, db_table, rng);
  // Enumerate generously (the generated machines are acyclic, so path
  // counts stay small) and truncate to the requested execution count.
  auto compiled = output.machine.CompileProvenance(
      config.max_transitions, /*max_executions=*/100000);
  if (compiled.ok()) {
    std::unique_ptr<ir::IrDdpExpression> expr = std::move(compiled).value();
    // Keep the input reviewable: the first num_executions executions in
    // canonical order.
    expr->TruncateExecutions(static_cast<size_t>(config.num_executions));
    return expr;
  }
  // Path explosion: fall back to an empty expression (callers treat this
  // as a degenerate input); with the default acyclic generator this does
  // not happen.
  auto empty =
      std::make_unique<ir::IrDdpExpression>(std::make_shared<ir::TermPool>());
  empty->Canonicalize();
  return empty;
}

}  // namespace

Dataset DdpGenerator::Generate(const DdpConfig& config) {
  Rng rng(config.seed);
  Dataset ds;
  ds.registry = std::make_unique<AnnotationRegistry>();
  ds.ctx.registry = ds.registry.get();
  ds.agg = AggKind::kMin;  // tropical: min over feasible executions
  // Table 5.1: logical OR on DB vars; MAX on cost keep/cancel bits, which
  // coincides with OR on {0,1} assignments.
  ds.phi.fallback = PhiKind::kOr;

  DomainId cost_domain = ds.registry->AddDomain("cost_var");
  DomainId db_domain = ds.registry->AddDomain("db_var");
  ds.domains["cost_var"] = cost_domain;
  ds.domains["db_var"] = db_domain;

  // --- Cost variables carry a Cost attribute; DB variables a Table. ------
  EntityTable cost_table("CostVars");
  AttrId cost_attr = cost_table.AddAttribute("Cost");
  EntityTable db_table("DbVars");
  AttrId table_attr = db_table.AddAttribute("Table");
  (void)table_attr;

  if (config.from_machine) {
    ds.provenance = GenerateFromMachine(config, ds.registry.get(),
                                        &cost_table, &db_table, &rng);
    ds.constraints.SetRule(cost_domain, std::make_unique<NumericToleranceRule>(
                                            cost_attr, config.cost_tolerance));
    ds.constraints.SetRule(db_domain, std::make_unique<AnyMergeRule>("D"));
    ds.ctx.tables.emplace(cost_domain, std::move(cost_table));
    ds.ctx.tables.emplace(db_domain, std::move(db_table));
    ds.valuation_class = std::make_unique<CancelSingleAttribute>();
    ds.val_func = std::make_unique<DdpDifferenceValFunc>(
        static_cast<double>(config.max_cost),
        static_cast<double>(config.max_transitions));
    return ds;
  }

  auto expr =
      std::make_unique<ir::IrDdpExpression>(std::make_shared<ir::TermPool>());
  std::vector<AnnotationId> cost_anns;
  for (int c = 0; c < config.num_cost_vars; ++c) {
    int cost = 1 + static_cast<int>(rng.PickIndex(config.max_cost));
    uint32_t row = cost_table.AddRow({std::to_string(cost)}).MoveValue();
    AnnotationId ann =
        ds.registry->Add(cost_domain, "c" + std::to_string(c + 1), row)
            .MoveValue();
    cost_anns.push_back(ann);
    expr->SetCost(ann, cost);
  }

  std::vector<AnnotationId> db_anns;
  for (int d = 0; d < config.num_db_vars; ++d) {
    uint32_t row =
        db_table.AddRow({"T" + std::to_string(d % 3)}).MoveValue();
    AnnotationId ann =
        ds.registry->Add(db_domain, "d" + std::to_string(d + 1), row)
            .MoveValue();
    db_anns.push_back(ann);
  }

  // --- Executions. ---------------------------------------------------------
  // Executions come in template families: each family shares a transition
  // skeleton, and its variants differ in the identity of one variable (the
  // Example 5.2.2 situation, where mapping d1,d3 ↦ D1 and c1,c2 ↦ C1
  // collapses two executions into one). This gives summarization actual
  // size-reduction opportunities — DDP expressions shrink only when whole
  // executions become identical.
  auto add_execution = [&expr](const std::vector<DdpTransition>& exec) {
    expr->BeginExecution();
    for (const DdpTransition& t : exec) t.AppendTo(expr.get());
  };
  const int num_templates = std::max(1, config.num_executions / 2);
  int emitted = 0;
  for (int f = 0; f < num_templates && emitted < config.num_executions;
       ++f) {
    std::vector<DdpTransition> base;
    int len = static_cast<int>(
        rng.UniformRange(config.min_transitions, config.max_transitions));
    for (int t = 0; t < len; ++t) {
      if (rng.Bernoulli(0.5)) {
        base.push_back(
            DdpTransition::User(cost_anns[rng.PickIndex(cost_anns.size())]));
      } else {
        int arity = rng.Bernoulli(0.6) ? 2 : 1;
        std::vector<AnnotationId> factors;
        for (int a = 0; a < arity; ++a) {
          factors.push_back(db_anns[rng.PickIndex(db_anns.size())]);
        }
        base.push_back(DdpTransition::Db(Monomial(std::move(factors)),
                                         /*nonzero=*/rng.Bernoulli(0.7)));
      }
    }
    add_execution(base);
    ++emitted;

    // 1-2 variants, each swapping one variable of the base skeleton.
    int variants = 1 + static_cast<int>(rng.PickIndex(2));
    for (int v = 0; v < variants && emitted < config.num_executions; ++v) {
      std::vector<DdpTransition> variant = base;
      DdpTransition& t = variant[rng.PickIndex(variant.size())];
      if (t.kind == DdpTransition::Kind::kUser) {
        t.cost_var = cost_anns[rng.PickIndex(cost_anns.size())];
      } else {
        std::vector<AnnotationId> factors = t.db_factors.factors();
        factors[rng.PickIndex(factors.size())] =
            db_anns[rng.PickIndex(db_anns.size())];
        t.db_factors = Monomial(std::move(factors));
      }
      add_execution(variant);
      ++emitted;
    }
  }
  expr->Canonicalize();
  ds.provenance = std::move(expr);

  // --- Constraints, valuations, VAL-FUNC per Table 5.1 / Example 5.2.2. --
  ds.constraints.SetRule(cost_domain, std::make_unique<NumericToleranceRule>(
                                          cost_attr, config.cost_tolerance));
  ds.constraints.SetRule(db_domain, std::make_unique<AnyMergeRule>("D"));

  ds.ctx.tables.emplace(cost_domain, std::move(cost_table));
  ds.ctx.tables.emplace(db_domain, std::move(db_table));

  ds.valuation_class = std::make_unique<CancelSingleAttribute>();
  ds.val_func = std::make_unique<DdpDifferenceValFunc>(
      static_cast<double>(config.max_cost),
      static_cast<double>(config.max_transitions));
  return ds;
}

}  // namespace prox
