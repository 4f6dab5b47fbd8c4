#ifndef PROX_SUMMARIZE_SUMMARIZER_H_
#define PROX_SUMMARIZE_SUMMARIZER_H_

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "provenance/expression.h"
#include "semantics/constraints.h"
#include "semantics/context.h"
#include "summarize/candidates.h"
#include "summarize/distance.h"
#include "summarize/mapping_state.h"

namespace prox {

/// How ties between minimal-score candidates are broken (Section 4.2: the
/// taxonomy distances of members from the summary annotation, by MAX or
/// SUM; kFirst picks the first minimal candidate in deterministic order,
/// the "arbitrary" choice when no taxonomy is given).
enum class TieBreak { kTaxonomyMax, kTaxonomySum, kFirst };

/// Configuration of Algorithm 1 (and of its k-way extension).
struct SummarizerOptions {
  /// wDist and wSize of Definition 3.2.4. Both must be non-negative with a
  /// positive sum; Run() rejects anything else with InvalidArgument, and
  /// normalizes a sum ≠ 1 back to a convex combination (which preserves
  /// the candidate ranking — both weights scale by the same factor — but
  /// keeps reported CandidateScores on the documented [0,1]-ish scale).
  double w_dist = 0.5;
  double w_size = 0.5;

  /// Stop bounds. target_dist = 1 (maximal normalized distance) and
  /// target_size = 1 (minimal size) cancel the respective condition, as
  /// described for the three problem flavors in Section 3.2.
  double target_dist = 1.0;
  int64_t target_size = 1;

  /// Bound on the number of algorithm steps (§6.7's "number of steps").
  int max_steps = std::numeric_limits<int>::max();

  /// Run GroupEquivalent (Proposition 4.2.1) before the greedy loop.
  bool group_equivalent_first = true;
  /// Only merge equivalence classes the mapping constraints allow. The
  /// merge stays distance-0 either way; this keeps summary names
  /// semantically meaningful.
  bool equivalence_respects_constraints = true;

  /// Candidate ranks in CandidateScore: false = normalized values
  /// (distance in [0,1], size / original size); true = ordinal ranks among
  /// the step's candidates, scaled to [0,1].
  bool use_ordinal_ranks = false;

  /// Weight of the taxonomy term in the candidate score (Section 3.2:
  /// "taxonomic information ... may be incorporated as part of the
  /// computation ... prefer mappings of annotations to a new annotation
  /// that is relatively close to them"). 0 (the default) restricts
  /// taxonomy influence to tie-breaking, as in Algorithm 1; > 0 adds
  /// w_taxonomy × (MAX Wu-Palmer distance of members from the summary
  /// concept) to every candidate's score.
  double w_taxonomy = 0.0;

  TieBreak tie_break = TieBreak::kTaxonomyMax;

  CandidateOptions candidates;

  /// Warm start (docs/INGEST.md): replay a previous run's
  /// MappingState::summaries() entries before the greedy loop instead of
  /// starting from the identity mapping. The seed's summary annotations
  /// must still be registered and its members must be live originals of
  /// `p0` — guaranteed under the ingest subsystem's monotone-growth
  /// contract. When set (non-null, non-empty), GroupEquivalent is skipped:
  /// the seed already contains any distance-0 merges its run performed,
  /// and the greedy loop continues from the replayed state under the same
  /// TARGET-DIST / TARGET-SIZE / max_steps bounds. The pointee must
  /// outlive Run().
  const std::vector<std::pair<AnnotationId, std::vector<AnnotationId>>>*
      warm_seed = nullptr;

  /// φ combiners per domain (Section 3.2).
  PhiConfig phi;

  /// Worker threads for candidate scoring (exec/thread_pool.h): `0` =
  /// process default (the PROX_THREADS env var, else hardware
  /// concurrency), `1` = the exact serial path, `N` = N workers. Results
  /// are bit-identical at every setting; see docs/PARALLELISM.md.
  int threads = 1;
};

/// One committed iteration of the greedy loop.
struct StepRecord {
  int step = 0;
  std::vector<AnnotationId> merged_roots;
  AnnotationId summary = kNoAnnotation;
  std::string summary_name;
  double distance = 0.0;  ///< normalized distance after this step
  int64_t size = 0;       ///< expression size after this step
  double score = 0.0;     ///< winning CandidateScore
  int num_candidates = 0;
  /// Average wall time to evaluate one candidate (distance + size), ns —
  /// the quantity of Figure 6.5a. A view over the step's
  /// "summarize.candidate_eval" trace span (obs/trace.h), not a separate
  /// measurement.
  double candidate_eval_nanos = 0.0;
  /// Total wall time of the step, ns — the duration of the step's
  /// "summarize.step" trace span.
  double step_nanos = 0.0;
};

/// The outcome of a summarization run.
struct SummaryOutcome {
  std::unique_ptr<ProvenanceExpression> summary = nullptr;
  MappingState state;
  std::vector<StepRecord> steps = {};
  double final_distance = 0.0;
  int64_t final_size = 0;
  /// True when the TARGET-DIST overshoot rollback of Algorithm 1 line 11
  /// fired and `summary` is the previous step's expression.
  bool rolled_back = false;
  int equivalence_merges = 0;
  /// Total wall time of the run, ns — the duration of the run's
  /// "summarize.run" trace span.
  double total_nanos = 0.0;
  /// Merges replayed from SummarizerOptions::warm_seed before the greedy
  /// loop (0 on cold runs). Not part of the serialized summary JSON.
  int warm_replayed_merges = 0;
};

/// \brief Algorithm 1, "Provenance Summarization Algorithm": greedy search
/// over single-step mappings, scored by
///   CandidateScore = wDist · r_Dist + wSize · r_Size   (Definition 3.2.4),
/// with the distance-0 equivalence grouping of Proposition 4.2.1 as the
/// first step and taxonomy tie-breaking.
///
/// The loop continues while the expression is larger than TARGET-SIZE and
/// the distance is below TARGET-DIST (and steps/candidates remain); if the
/// final step overshoots TARGET-DIST the previous expression is returned.
class Summarizer {
 public:
  /// All pointers must outlive the Summarizer. `registry` is mutated: the
  /// run registers summary annotations (plus per-step scratch annotations
  /// used to score candidates).
  Summarizer(const ProvenanceExpression* p0, AnnotationRegistry* registry,
             const SemanticContext* ctx, const ConstraintSet* constraints,
             EnumeratedDistance* oracle,
             const std::vector<Valuation>* valuations,
             SummarizerOptions options);

  /// Runs the algorithm to completion.
  Result<SummaryOutcome> Run();

 private:
  struct ScoredCandidate {
    size_t index;    // into the step's candidate vector
    double distance;
    int64_t size;
    double score;
  };

  /// Applies GroupEquivalent; returns the number of classes merged.
  int GroupEquivalent(std::unique_ptr<ProvenanceExpression>* current,
                      MappingState* state);

  /// Picks the winning candidate of a step (normalized or ordinal scoring
  /// + tie-breaking). `scored` must be non-empty.
  size_t PickBest(const CandidateSet& candidates,
                  std::vector<ScoredCandidate>* scored) const;

  const ProvenanceExpression* p0_;
  AnnotationRegistry* registry_;
  const SemanticContext* ctx_;
  const ConstraintSet* constraints_;
  EnumeratedDistance* oracle_;
  const std::vector<Valuation>* valuations_;
  SummarizerOptions options_;
};

}  // namespace prox

#endif  // PROX_SUMMARIZE_SUMMARIZER_H_
