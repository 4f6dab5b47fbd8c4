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
  /// The candidate's index in the set's previous step when Generate carried
  /// it from there (the same roots), else -1.
  int32_t prev = -1;
  MergeDecision decision;  ///< constraint verdict: name + taxonomy metrics
};

/// \brief One step's candidates and the flat roots buffer they index.
///
/// A run keeps one set across its steps. When the state is one merge past
/// the set's last step (MappingState::OneMergePast), Generate carries that
/// step's work: the allowed candidates without a root in the last merge,
/// plus the subsets that contain its summary annotation, the only ones
/// evaluated against the rules. Otherwise it enumerates every subset.
/// Buffers are cleared, never freed, so a step allocates only when it
/// outgrows every earlier one.
class CandidateSet {
 public:
  size_t size() const { return view().size(); }
  bool empty() const { return view().empty(); }
  const Candidate& operator[](size_t i) const { return view()[i]; }
  std::vector<Candidate>::const_iterator begin() const {
    return view().begin();
  }
  std::vector<Candidate>::const_iterator end() const { return view().end(); }

  /// The candidate's roots, sorted; valid until the next Generate.
  std::span<const AnnotationId> roots(const Candidate& c) const {
    return {roots_.data() + c.offset, c.arity};
  }

 private:
  friend class CandidateGenerator;

  /// The step's candidates: every allowed one, or the max_candidates
  /// subsample of them.
  const std::vector<Candidate>& view() const {
    return sampled_ ? sample_ : all_;
  }

  // Every allowed candidate in (domain, roots) order, what the next step
  // carries, and the subsample when one was drawn.
  std::vector<Candidate> all_;
  std::vector<AnnotationId> roots_;
  std::vector<Candidate> sample_;
  bool sampled_ = false;
  std::vector<uint32_t> sample_index_;  // all_ index of each sample_ entry
  // The step the set was generated at, and its arity.
  MappingState::Mark mark_;
  int arity_ = 0;
  // The current annotations of domains with a rule, in (domain, annotation)
  // order: what a carried step updates instead of CollectAnnotations.
  std::vector<std::pair<DomainId, AnnotationId>> buckets_;
  // Working buffers: the expression's annotations, the carried and fresh
  // candidates being merged, the previous view index of each all_ entry,
  // the subset indices and the members of the subset under the rules.
  std::vector<AnnotationId> anns_;
  std::vector<Candidate> next_;
  std::vector<AnnotationId> next_roots_;
  std::vector<Candidate> fresh_;
  std::vector<AnnotationId> fresh_roots_;
  std::vector<int32_t> view_index_;
  std::vector<int> subset_;
  std::vector<AnnotationId> subset_roots_;
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
  /// current expression/state, in deterministic (domain, roots) order,
  /// carrying `out`'s last step when `state` is one merge past it.
  /// `current` must be h(p₀) for `state`, and the set must only ever have
  /// been generated by this generator for this run.
  void Generate(const ProvenanceExpression& current, const MappingState& state,
                const CandidateOptions& options, CandidateSet* out) const;

 private:
  /// Evaluates the rules on the subset `roots` (sorted) of `domain` and,
  /// when allowed, appends it to `list` and its roots to `roots_buf`.
  void Emit(DomainId domain, std::span<const AnnotationId> roots,
            const MappingState& state, std::vector<AnnotationId>* members,
            std::vector<Candidate>* list,
            std::vector<AnnotationId>* roots_buf) const;
  /// A full step: every subset of every domain with a rule.
  void GenerateAll(const ProvenanceExpression& current,
                   const MappingState& state, int arity,
                   CandidateSet* out) const;
  /// A carried step: the last step's allowed candidates without a root in
  /// the last merge, and the allowed subsets with its summary annotation.
  void Carry(const MappingState& state, int arity, CandidateSet* out) const;

  const ConstraintSet* constraints_;
  const SemanticContext* ctx_;
};

}  // namespace prox

#endif  // PROX_SUMMARIZE_CANDIDATES_H_
