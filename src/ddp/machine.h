#ifndef PROX_DDP_MACHINE_H_
#define PROX_DDP_MACHINE_H_

#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "ir/ddp_expr.h"
#include "provenance/monomial.h"
#include "semantics/entity_table.h"

namespace prox {

/// \brief One edge label of a DdpMachine (Example 5.2.2, after [17]).
///
/// Either a user-dependent transition `⟨c_k, 1⟩` carrying the cost variable
/// `c_k` (the user's effort), or a database-dependent transition
/// `⟨0, [d_i·d_j] ≠ 0⟩` / `⟨0, [d_i·d_j] = 0⟩` guarded by a product of DB
/// tuple variables.
struct DdpTransition {
  enum class Kind { kUser, kDb };

  Kind kind = Kind::kUser;
  AnnotationId cost_var = kNoAnnotation;  // kUser only
  Monomial db_factors;                    // kDb only
  bool nonzero = true;                    // kDb: true = "≠ 0", false = "= 0"

  static DdpTransition User(AnnotationId cost_var) {
    DdpTransition t;
    t.kind = Kind::kUser;
    t.cost_var = cost_var;
    return t;
  }
  static DdpTransition Db(Monomial factors, bool nonzero) {
    DdpTransition t;
    t.kind = Kind::kDb;
    t.db_factors = std::move(factors);
    t.nonzero = nonzero;
    return t;
  }

  /// Appends this transition to `expr`'s current execution.
  void AppendTo(ir::IrDdpExpression* expr) const {
    if (kind == Kind::kUser) {
      expr->AddUserTransition(cost_var);
    } else {
      expr->AddDbTransition(db_factors, nonzero);
    }
  }
};

/// \brief A data-dependent process (Deutch-Milo [17], as used by the
/// thesis's DDP dataset, Example 5.2.2): an application "whose control
/// flow is guided by a finite state machine, as well as by the state of an
/// underlying database".
///
/// States are integers; each edge is either a *user-dependent* transition
/// (the user chooses it, at effort `cost_var`) or a *database-dependent*
/// transition guarded by a query over DB tuple variables
/// (`[d_i·d_j] ≠ 0` — the tuples exist — or `= 0`).
///
/// The provenance of the process is the sum over accepting executions of
/// the product of their transition tokens — exactly the DDP expression the
/// summarizer consumes; CompileProvenance materializes it.
class DdpMachine {
 public:
  struct Edge {
    int from = 0;
    int to = 0;
    DdpTransition transition;
  };

  /// \param num_states states are 0 .. num_states-1; 0 is the start state
  explicit DdpMachine(int num_states) : num_states_(num_states) {}

  int num_states() const { return num_states_; }

  void AddUserEdge(int from, int to, AnnotationId cost_var) {
    edges_.push_back(Edge{from, to, DdpTransition::User(cost_var)});
  }
  void AddDbEdge(int from, int to, Monomial factors, bool nonzero) {
    edges_.push_back(
        Edge{from, to, DdpTransition::Db(std::move(factors), nonzero)});
  }

  void SetAccepting(int state) { accepting_.insert(state); }
  bool IsAccepting(int state) const { return accepting_.count(state) > 0; }

  const std::vector<Edge>& edges() const { return edges_; }

  /// Associates a cost with a user transition's cost variable.
  void SetCost(AnnotationId cost_var, double cost) {
    costs_.emplace_back(cost_var, cost);
  }

  /// Enumerates every execution (path from state 0 to an accepting state)
  /// of at most `max_transitions` transitions and compiles the canonical
  /// DDP provenance expression on a fresh TermPool: Σ over executions of
  /// Π of transition tokens, with the tropical/boolean evaluation
  /// semantics of Example 5.2.2.
  ///
  /// Fails when the enumeration would exceed `max_executions` paths (the
  /// summarization input must stay finite and reviewable).
  Result<std::unique_ptr<ir::IrDdpExpression>> CompileProvenance(
      int max_transitions, size_t max_executions = 4096) const;

 private:
  int num_states_;
  std::vector<Edge> edges_;
  std::set<int> accepting_;
  std::vector<std::pair<AnnotationId, double>> costs_;
};

/// Configuration for random machine generation (the experiments' DDP
/// workloads, generated instead of the unavailable traces of [17]).
struct RandomMachineConfig {
  int num_states = 5;
  int num_cost_vars = 8;
  int num_db_vars = 10;
  int max_cost = 10;
  /// Edges beyond a spanning chain, each user- or db-dependent.
  int extra_edges = 6;
  /// Probability that an edge gets a parallel variant differing in one
  /// variable — the source of near-duplicate executions that make
  /// summarization collapse opportunities (Example 5.2.2's d1/d3 pair).
  double parallel_edge_prob = 0.5;
};

/// \brief Builds a random DDP machine over freshly registered cost/DB
/// variables (domains "cost_var" / "db_var", with Cost and Table entity
/// attributes matching the DDP dataset's constraints).
class RandomDdpMachine {
 public:
  struct Output {
    DdpMachine machine;
    std::vector<AnnotationId> cost_vars;
    std::vector<AnnotationId> db_vars;
  };

  static Output Generate(const RandomMachineConfig& config,
                         AnnotationRegistry* registry, EntityTable* costs,
                         EntityTable* db_vars, Rng* rng);
};

}  // namespace prox

#endif  // PROX_DDP_MACHINE_H_
