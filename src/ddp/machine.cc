#include "ddp/machine.h"

#include <functional>
#include <string>

namespace prox {

Result<std::unique_ptr<ir::IrDdpExpression>> DdpMachine::CompileProvenance(
    int max_transitions, size_t max_executions) const {
  auto expr =
      std::make_unique<ir::IrDdpExpression>(std::make_shared<ir::TermPool>());
  for (const auto& [var, cost] : costs_) expr->SetCost(var, cost);

  // Adjacency index.
  std::vector<std::vector<const Edge*>> out_edges(num_states_);
  for (const Edge& e : edges_) {
    if (e.from < 0 || e.from >= num_states_ || e.to < 0 ||
        e.to >= num_states_) {
      return Status::InvalidArgument("edge endpoint out of range");
    }
    out_edges[e.from].push_back(&e);
  }

  // DFS over bounded-length paths from the start state. Cycles are
  // allowed; the transition bound keeps the enumeration finite.
  size_t emitted = 0;
  bool overflow = false;
  std::vector<const Edge*> path;
  std::function<void(int)> visit = [&](int state) {
    if (overflow) return;
    if (IsAccepting(state) && !path.empty()) {
      if (++emitted > max_executions) {
        overflow = true;
        return;
      }
      expr->BeginExecution();
      for (const Edge* e : path) e->transition.AppendTo(expr.get());
    }
    if (static_cast<int>(path.size()) >= max_transitions) return;
    for (const Edge* e : out_edges[state]) {
      path.push_back(e);
      visit(e->to);
      path.pop_back();
    }
  };
  visit(0);
  if (overflow) {
    return Status::OutOfRange(
        "machine admits more than " + std::to_string(max_executions) +
        " executions of length <= " + std::to_string(max_transitions));
  }
  expr->Canonicalize();
  return expr;
}

RandomDdpMachine::Output RandomDdpMachine::Generate(
    const RandomMachineConfig& config, AnnotationRegistry* registry,
    EntityTable* costs, EntityTable* db_table, Rng* rng) {
  DomainId cost_domain = registry->AddDomain("cost_var");
  DomainId db_domain = registry->AddDomain("db_var");

  Output out{DdpMachine(config.num_states), {}, {}};

  auto next_name = [&registry](const std::string& prefix, int i) {
    std::string name = prefix + std::to_string(i + 1);
    while (registry->Find(name).ok()) name += "'";
    return name;
  };

  for (int c = 0; c < config.num_cost_vars; ++c) {
    int cost = 1 + static_cast<int>(rng->PickIndex(config.max_cost));
    uint32_t row = costs->AddRow({std::to_string(cost)}).MoveValue();
    AnnotationId ann =
        registry->Add(cost_domain, next_name("c", c), row).MoveValue();
    out.cost_vars.push_back(ann);
    out.machine.SetCost(ann, cost);
  }
  for (int d = 0; d < config.num_db_vars; ++d) {
    uint32_t row =
        db_table->AddRow({"T" + std::to_string(d % 3)}).MoveValue();
    out.db_vars.push_back(
        registry->Add(db_domain, next_name("d", d), row).MoveValue());
  }

  auto random_transition = [&]() -> DdpTransition {
    if (rng->Bernoulli(0.5)) {
      return DdpTransition::User(
          out.cost_vars[rng->PickIndex(out.cost_vars.size())]);
    }
    int arity = rng->Bernoulli(0.6) ? 2 : 1;
    std::vector<AnnotationId> factors;
    for (int f = 0; f < arity; ++f) {
      factors.push_back(out.db_vars[rng->PickIndex(out.db_vars.size())]);
    }
    return DdpTransition::Db(Monomial(std::move(factors)),
                             rng->Bernoulli(0.7));
  };

  /// Perturbs one variable of a transition (the parallel-variant recipe).
  auto perturb = [&](DdpTransition t) {
    if (t.kind == DdpTransition::Kind::kUser) {
      t.cost_var = out.cost_vars[rng->PickIndex(out.cost_vars.size())];
    } else {
      std::vector<AnnotationId> factors = t.db_factors.factors();
      factors[rng->PickIndex(factors.size())] =
          out.db_vars[rng->PickIndex(out.db_vars.size())];
      t.db_factors = Monomial(std::move(factors));
    }
    return t;
  };

  auto add_edge = [&](int from, int to, const DdpTransition& t) {
    if (t.kind == DdpTransition::Kind::kUser) {
      out.machine.AddUserEdge(from, to, t.cost_var);
    } else {
      out.machine.AddDbEdge(from, to, t.db_factors, t.nonzero);
    }
  };

  // Spanning chain start -> ... -> last state (the accepting state), so
  // every machine admits at least one execution.
  for (int s = 0; s + 1 < config.num_states; ++s) {
    DdpTransition t = random_transition();
    add_edge(s, s + 1, t);
    if (rng->Bernoulli(config.parallel_edge_prob)) {
      add_edge(s, s + 1, perturb(t));
    }
  }
  out.machine.SetAccepting(config.num_states - 1);

  // Extra forward edges (keeping the graph acyclic keeps path counts
  // manageable while still yielding many executions).
  for (int e = 0; e < config.extra_edges; ++e) {
    int from = static_cast<int>(rng->PickIndex(config.num_states - 1));
    int to =
        from + 1 +
        static_cast<int>(rng->PickIndex(config.num_states - 1 - from));
    DdpTransition t = random_transition();
    add_edge(from, to, t);
    if (rng->Bernoulli(config.parallel_edge_prob)) {
      add_edge(from, to, perturb(t));
    }
  }
  return out;
}

}  // namespace prox
