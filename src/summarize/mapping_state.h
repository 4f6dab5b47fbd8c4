#ifndef PROX_SUMMARIZE_MAPPING_STATE_H_
#define PROX_SUMMARIZE_MAPPING_STATE_H_

#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernels/valuation_block.h"
#include "provenance/annotation.h"
#include "provenance/homomorphism.h"
#include "provenance/valuation.h"

namespace prox {

/// The φ combiner of Section 3.2: how truth values of grouped annotations
/// combine into the summary annotation's truth value. OR cancels a summary
/// only when *all* members are cancelled; AND when *any* member is. The
/// thesis's MAX combiner for DDP cost keep/cancel bits coincides with OR on
/// {0,1} assignments.
enum class PhiKind { kOr, kAnd };

/// Per-domain φ configuration; domains default to `fallback`.
struct PhiConfig {
  PhiKind fallback = PhiKind::kOr;
  std::map<DomainId, PhiKind> per_domain;

  PhiKind For(DomainId domain) const {
    auto it = per_domain.find(domain);
    return it == per_domain.end() ? fallback : it->second;
  }
};

/// \brief The cumulative state of a summarization run: the homomorphism
/// h : Ann → Ann' built so far, the member sets behind each summary
/// annotation, and the machinery to transform base valuations into v^{h,φ}
/// (Section 3.2).
///
/// Copyable: the summarizer keeps the previous step's state for the
/// TARGET-DIST rollback (Algorithm 1 line 11), and candidates that step
/// pricing cannot price by their dirty groups are priced on a tentative
/// copy (EnumeratedDistance::PriceMerges).
class MappingState {
 public:
  MappingState(const AnnotationRegistry* registry, PhiConfig phi)
      : registry_(registry), phi_(std::move(phi)) {}

  /// Merges the current annotations `roots` (originals or earlier summary
  /// annotations) into `summary`, a freshly registered summary annotation.
  /// Updates the cumulative homomorphism for every original member.
  void Merge(const std::vector<AnnotationId>& roots, AnnotationId summary);

  /// Reconstructs a previous run's state from its `summaries()` entries
  /// (creation order, sorted original members) — the warm-start seed of
  /// the ingest subsystem (docs/INGEST.md). Each entry's member list is
  /// translated back into the merge roots that were live at its creation
  /// (members absorbed by an earlier entry map to that entry's summary),
  /// then replayed through Merge, so the rebuilt homomorphism, member
  /// sets and summary list are identical to the recorded run's.
  void Replay(
      const std::vector<std::pair<AnnotationId, std::vector<AnnotationId>>>&
          entries);

  /// The cumulative h.
  const Homomorphism& cumulative() const { return hom_; }

  /// Original annotations mapped to `root`, sorted: the stored members of
  /// a summary annotation, else the one-element span over `root` itself
  /// (so the span lives as long as the argument). No copy is made.
  std::span<const AnnotationId> Members(const AnnotationId& root) const;

  /// Number of merges performed.
  int num_merges() const { return num_merges_; }

  /// Materializes the transformed valuation v^{h,φ}: original annotations
  /// keep their base truth; each summary annotation gets
  /// φ(truth of its members) (Section 3.2's v_{Ann'}(a') = v_{Ann}(φ(a'))).
  /// `num_annotations` is the current registry size.
  MaterializedValuation Transform(const Valuation& base,
                                  size_t num_annotations) const;

  /// Same result as `Transform(base, num_annotations)`, but starts from
  /// `base_mat` — a MaterializedValuation of `base` built earlier (possibly
  /// at a smaller registry size) — so only the φ overrides are recomputed,
  /// not the whole bitmap. bench_core_micro's scalar reference uses it to
  /// keep materialization out of its timed loop.
  MaterializedValuation TransformFrom(const Valuation& base,
                                      const MaterializedValuation& base_mat,
                                      size_t num_annotations) const;

  /// Batch counterpart of Transform/TransformFrom: writes v^{h,φ} for
  /// `base` into lane `lane` of `out` (which must be Reset() for the
  /// current registry size — lanes start all-true). Produces exactly the
  /// truth bits of `Transform(base, out->num_annotations())`, but the φ
  /// override pass runs per *chunk lane* instead of copy-extending a
  /// MaterializedValuation per valuation.
  void TransformLane(const Valuation& base, size_t lane,
                     kernels::ValuationBlock* out) const;

  PhiKind PhiFor(DomainId domain) const { return phi_.For(domain); }

  /// Summary annotations created so far, in creation order, with members.
  const std::vector<std::pair<AnnotationId, std::vector<AnnotationId>>>&
  summaries() const {
    return summaries_;
  }

 private:
  const AnnotationRegistry* registry_;
  PhiConfig phi_;
  Homomorphism hom_;
  /// summary annotation -> sorted original members
  std::unordered_map<AnnotationId, std::vector<AnnotationId>> members_;
  std::vector<std::pair<AnnotationId, std::vector<AnnotationId>>> summaries_;
  int num_merges_ = 0;
};

}  // namespace prox

#endif  // PROX_SUMMARIZE_MAPPING_STATE_H_
