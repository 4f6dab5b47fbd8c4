#ifndef PROX_WORKFLOW_MODULE_H_
#define PROX_WORKFLOW_MODULE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "provenance/guard.h"
#include "provenance/monomial.h"
#include "workflow/database.h"

namespace prox {

/// \brief A provenance-carrying data item flowing between workflow modules
/// on a dataflow edge: the record payload plus the provenance pieces a
/// downstream aggregator combines into tensors (Example 2.2.1's
/// `U_i · [S_i·U_i ⊗ n > 2] ⊗ (score, 1)` shape).
struct FlowRecord {
  /// Record payload (e.g. UID, movie title, score) keyed positionally by
  /// the producing module's declared schema.
  std::vector<std::string> values;
  /// The ·-product of annotations behind this record.
  Monomial provenance;
  /// Optional comparison guard attached by sanitizing logic.
  std::optional<Guard> guard;
};

/// A batch of records on one dataflow edge.
struct FlowBundle {
  std::vector<std::string> schema;
  std::vector<FlowRecord> records;
};

/// \brief Shared execution state of one workflow run: the persistent
/// database plus the named dataflow edges produced so far.
struct WorkflowContext {
  WorkflowDatabase* db = nullptr;
  AnnotationRegistry* registry = nullptr;
  std::map<std::string, FlowBundle> edges;

  Result<const FlowBundle*> Edge(const std::string& name) const {
    auto it = edges.find(name);
    if (it == edges.end()) {
      return Status::NotFound("no dataflow edge " + name);
    }
    return const_cast<const FlowBundle*>(&it->second);
  }
};

/// \brief A workflow processing step (Section 2.1): an atomic module is a
/// query over its input edges and the underlying database; it may also
/// update the database. Modules run in specification order.
class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}
  virtual ~Module() = default;

  const std::string& name() const { return name_; }

  /// Executes the module's logic against the shared context.
  virtual Status Run(WorkflowContext* ctx) = 0;

 private:
  std::string name_;
};

/// \brief A workflow specification: an ordered list of modules (the
/// repeated application of Section 2.1's FSM view). Running it produces
/// updated tables, dataflow edges, and — through aggregator modules — a
/// provenance-annotated result.
class Workflow {
 public:
  void AddModule(std::unique_ptr<Module> module) {
    modules_.push_back(std::move(module));
  }

  size_t num_modules() const { return modules_.size(); }
  const Module& module(size_t i) const { return *modules_[i]; }

  /// Runs all modules in order; stops at the first failure.
  Status Run(WorkflowContext* ctx) {
    for (auto& module : modules_) {
      PROX_RETURN_NOT_OK(module->Run(ctx));
    }
    return Status::OK();
  }

 private:
  std::vector<std::unique_ptr<Module>> modules_;
};

}  // namespace prox

#endif  // PROX_WORKFLOW_MODULE_H_
