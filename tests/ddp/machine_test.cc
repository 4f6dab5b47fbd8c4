#include "ddp/machine.h"

#include <gtest/gtest.h>

#include "datasets/ddp.h"

namespace prox {
namespace {

/// A hand-built machine realizing Example 5.2.2's two executions:
///   0 --⟨c1,1⟩--> 1 --⟨0,[d1·d2]≠0⟩--> 2 (accepting)
///   0 --⟨0,[d2·d3]=0⟩--> 1' --⟨c2,1⟩--> 2
/// modeled with a diamond over 4 states.
struct MachineFixture {
  AnnotationRegistry registry;
  AnnotationId c1, c2, d1, d2, d3;
  DdpMachine machine{4};

  MachineFixture() {
    DomainId cost = registry.AddDomain("cost_var");
    DomainId db = registry.AddDomain("db_var");
    c1 = registry.Add(cost, "c1").MoveValue();
    c2 = registry.Add(cost, "c2").MoveValue();
    d1 = registry.Add(db, "d1").MoveValue();
    d2 = registry.Add(db, "d2").MoveValue();
    d3 = registry.Add(db, "d3").MoveValue();
    machine.SetCost(c1, 4.0);
    machine.SetCost(c2, 6.0);
    machine.AddUserEdge(0, 1, c1);
    machine.AddDbEdge(1, 3, Monomial({d1, d2}), /*nonzero=*/true);
    machine.AddDbEdge(0, 2, Monomial({d2, d3}), /*nonzero=*/false);
    machine.AddUserEdge(2, 3, c2);
    machine.SetAccepting(3);
  }
};

TEST(DdpMachineTest, CompilesExample522Provenance) {
  MachineFixture fx;
  auto compiled = fx.machine.CompileProvenance(/*max_transitions=*/5);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  const ir::IrDdpExpression& flat = *compiled.value();
  EXPECT_EQ(flat.num_executions(), 2u);
  EXPECT_EQ(flat.CostOf(fx.c1), 4.0);
  EXPECT_EQ(flat.CostOf(fx.c2), 6.0);
  EXPECT_EQ(flat.Size(), 6);

  // Evaluation semantics match the hand-built expression of the
  // provenance tests: all DB vars present -> first execution feasible at
  // cost 4.
  EvalResult r = flat.Evaluate(MaterializedValuation(fx.registry.size()));
  EXPECT_TRUE(r.feasible());
  EXPECT_EQ(r.cost(), 4.0);

  // Cancel d1 only: neither guard holds.
  r = flat.Evaluate(
      MaterializedValuation(Valuation({fx.d1}), fx.registry.size()));
  EXPECT_FALSE(r.feasible());
}

TEST(DdpMachineTest, TransitionBoundTruncatesLongPaths) {
  MachineFixture fx;
  auto compiled = fx.machine.CompileProvenance(/*max_transitions=*/1);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled.value()->num_executions(), 0u);  // both paths are 2
}

TEST(DdpMachineTest, CyclicMachinesEnumerateBoundedPaths) {
  AnnotationRegistry registry;
  DomainId cost = registry.AddDomain("cost_var");
  AnnotationId c1 = registry.Add(cost, "c1").MoveValue();
  DdpMachine machine(2);
  machine.SetCost(c1, 1.0);
  machine.AddUserEdge(0, 1, c1);
  machine.AddUserEdge(1, 0, c1);
  machine.SetAccepting(1);
  auto compiled = machine.CompileProvenance(/*max_transitions=*/5);
  ASSERT_TRUE(compiled.ok());
  // Paths of length 1, 3 and 5 reach the accepting state.
  EXPECT_EQ(compiled.value()->num_executions(), 3u);
}

TEST(DdpMachineTest, ExplosionGuardFails) {
  // A machine with many parallel edges explodes combinatorially; the
  // enumeration cap turns that into an error instead of an OOM.
  AnnotationRegistry registry;
  DomainId cost = registry.AddDomain("cost_var");
  DdpMachine machine(6);
  std::vector<AnnotationId> vars;
  for (int i = 0; i < 10; ++i) {
    vars.push_back(
        registry.Add(cost, "c" + std::to_string(i)).MoveValue());
  }
  for (int s = 0; s < 5; ++s) {
    for (AnnotationId v : vars) machine.AddUserEdge(s, s + 1, v);
  }
  machine.SetAccepting(5);
  auto compiled =
      machine.CompileProvenance(/*max_transitions=*/5, /*max_executions=*/100);
  EXPECT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kOutOfRange);
}

TEST(DdpMachineTest, InvalidEdgesRejected) {
  AnnotationRegistry registry;
  DomainId cost = registry.AddDomain("cost_var");
  AnnotationId c1 = registry.Add(cost, "c1").MoveValue();
  DdpMachine machine(2);
  machine.AddUserEdge(0, 7, c1);  // out of range
  machine.SetAccepting(1);
  EXPECT_FALSE(machine.CompileProvenance(3).ok());
}

TEST(RandomDdpMachineTest, GeneratesCompilableMachines) {
  AnnotationRegistry registry;
  EntityTable costs("CostVars");
  costs.AddAttribute("Cost");
  EntityTable db("DbVars");
  db.AddAttribute("Table");
  Rng rng(7);
  RandomMachineConfig config;
  auto output = RandomDdpMachine::Generate(config, &registry, &costs, &db,
                                           &rng);
  EXPECT_EQ(output.cost_vars.size(), 8u);
  EXPECT_EQ(output.db_vars.size(), 10u);
  auto compiled = output.machine.CompileProvenance(5);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  EXPECT_GE(compiled.value()->num_executions(), 1u);
}

TEST(RandomDdpMachineTest, DeterministicForFixedSeed) {
  auto build = [] {
    AnnotationRegistry registry;
    EntityTable costs("CostVars");
    costs.AddAttribute("Cost");
    EntityTable db("DbVars");
    db.AddAttribute("Table");
    Rng rng(42);
    auto output = RandomDdpMachine::Generate(RandomMachineConfig{},
                                             &registry, &costs, &db, &rng);
    return output.machine.CompileProvenance(5).MoveValue()->ToString(registry);
  };
  EXPECT_EQ(build(), build());
}

TEST(DdpGeneratorMachineModeTest, ProducesSummarizableDataset) {
  DdpConfig config;
  config.from_machine = true;
  config.num_executions = 12;
  Dataset ds = DdpGenerator::Generate(config);
  EXPECT_GT(ds.provenance->Size(), 0);
  // The dataset is fully wired: constraints, valuations, VAL-FUNC.
  auto valuations = ds.valuation_class->Generate(*ds.provenance, ds.ctx);
  EXPECT_FALSE(valuations.empty());
  EvalResult r =
      ds.provenance->Evaluate(MaterializedValuation(ds.registry->size()));
  EXPECT_EQ(r.kind(), EvalResult::Kind::kCostBool);
}

}  // namespace
}  // namespace prox
