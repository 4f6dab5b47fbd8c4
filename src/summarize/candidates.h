#ifndef PROX_SUMMARIZE_CANDIDATES_H_
#define PROX_SUMMARIZE_CANDIDATES_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "provenance/expression.h"
#include "semantics/constraints.h"
#include "semantics/context.h"
#include "summarize/mapping_state.h"

namespace prox {

/// \brief A single-step mapping candidate: `arity` current annotations of
/// one domain proposed for merging into a fresh summary annotation
/// (the CandidateHom set of Algorithm 1 line 3). Its roots, sorted, are
/// `arity` entries at `offset` in its CandidateSet's flat roots buffer.
struct Candidate {
  uint32_t offset = 0;
  uint32_t arity = 0;
  DomainId domain = 0;
  MergeDecision decision;  ///< constraint verdict: name + taxonomy metrics
};

/// \brief One step's candidates and the flat roots buffer they index.
///
/// A run keeps one set and regenerates it every step: Generate clears the
/// candidates, the roots and its own working buffers but keeps their
/// capacity, so a step allocates only when it outgrows every earlier one.
class CandidateSet {
 public:
  size_t size() const { return candidates_.size(); }
  bool empty() const { return candidates_.empty(); }
  const Candidate& operator[](size_t i) const { return candidates_[i]; }
  std::vector<Candidate>::const_iterator begin() const {
    return candidates_.begin();
  }
  std::vector<Candidate>::const_iterator end() const {
    return candidates_.end();
  }

  /// The candidate's roots, sorted; valid until the next Generate.
  std::span<const AnnotationId> roots(const Candidate& c) const {
    return {roots_.data() + c.offset, c.arity};
  }

 private:
  friend class CandidateGenerator;

  std::vector<Candidate> candidates_;
  std::vector<AnnotationId> roots_;
  // Generate's working buffers: the expression's annotations, (domain,
  // annotation) buckets, the subset indices and the members of the
  // subset under the constraint check.
  std::vector<AnnotationId> anns_;
  std::vector<std::pair<DomainId, AnnotationId>> buckets_;
  std::vector<int> subset_;
  std::vector<AnnotationId> members_;
};

struct CandidateOptions {
  /// How many annotations one step maps together. 2 reproduces the thesis;
  /// larger values implement its future-work k-way extension (§9).
  int arity = 2;
  /// Cap on candidates per step (0 = unlimited). Beyond the cap a
  /// deterministic uniform sample is drawn.
  size_t max_candidates = 0;
  uint64_t sample_seed = 0xCA1D1DA7E5;
};

/// \brief Enumerates the constraint-satisfying merge candidates over the
/// annotations of the current expression.
///
/// Constraints are evaluated on the union of *original* members of the
/// proposed groups, so e.g. a "shared attribute" rule keeps holding
/// transitively as groups grow.
class CandidateGenerator {
 public:
  CandidateGenerator(const ConstraintSet* constraints,
                     const SemanticContext* ctx)
      : constraints_(constraints), ctx_(ctx) {}

  /// Replaces `out`'s candidates with all allowed candidates for the
  /// current expression/state, in deterministic (domain, roots) order.
  void Generate(const ProvenanceExpression& current, const MappingState& state,
                const CandidateOptions& options, CandidateSet* out) const;

 private:
  const ConstraintSet* constraints_;
  const SemanticContext* ctx_;
};

}  // namespace prox

#endif  // PROX_SUMMARIZE_CANDIDATES_H_
