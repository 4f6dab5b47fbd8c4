#ifndef PROX_BASELINES_CLUSTERING_SUMMARIZER_H_
#define PROX_BASELINES_CLUSTERING_SUMMARIZER_H_

#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "baselines/feature.h"
#include "baselines/hac.h"
#include "common/result.h"
#include "provenance/expression.h"
#include "semantics/constraints.h"
#include "semantics/context.h"
#include "summarize/distance.h"
#include "summarize/summarizer.h"

namespace prox {

/// Configuration of the Clustering baseline (§6.2).
struct ClusteringOptions {
  Linkage linkage = Linkage::kSingle;  ///< the thesis presents single-linkage
  double target_dist = 1.0;
  int64_t target_size = 1;
  int max_steps = std::numeric_limits<int>::max();
  PhiConfig phi;
  /// Worker threads for the O(n²) initial dissimilarity-matrix fill
  /// (0 = process default, 1 = serial; same convention as
  /// SummarizerOptions::threads). The fill is race-free by construction —
  /// each matrix cell has a unique writing row — so results are identical
  /// at every setting.
  int threads = 1;
};

/// \brief The modified-HAC competitor of §6.2: hierarchical agglomerative
/// clustering over Pearson-dissimilarity feature vectors, constrained by
/// the same mapping constraints and stop conditions as Prov-Approx, with
/// each cluster merge translated into an annotation mapping so the
/// resulting summary provenance can be compared on equal footing.
///
/// Multiple domains (Wikipedia users *and* pages) are clustered separately
/// — one HAC per domain — and each step commits the globally smallest
/// allowed merge across domains.
class ClusteringSummarizer {
 public:
  ClusteringSummarizer(const ProvenanceExpression* p0,
                       AnnotationRegistry* registry,
                       const SemanticContext* ctx,
                       const ConstraintSet* constraints,
                       EnumeratedDistance* oracle, ClusteringOptions options);

  /// Declares the items of one clusterable domain with their feature
  /// vectors (e.g. each user with their movie→rating map). Must be called
  /// at least once before Run.
  void SetFeatures(DomainId domain,
                   std::map<AnnotationId, RatingVector> features);

  /// Runs constrained HAC to the stop conditions, producing the same
  /// outcome shape as the Summarizer for side-by-side evaluation.
  Result<SummaryOutcome> Run();

 private:
  struct DomainClustering {
    DomainId domain;
    std::vector<AnnotationId> items;  // item index -> original annotation
    std::unique_ptr<HacClusterer> hac;
    std::map<int, AnnotationId> cluster_ann;  // active cluster -> current ann
  };

  const ProvenanceExpression* p0_;
  AnnotationRegistry* registry_;
  const SemanticContext* ctx_;
  const ConstraintSet* constraints_;
  EnumeratedDistance* oracle_;
  ClusteringOptions options_;
  std::map<DomainId, std::map<AnnotationId, RatingVector>> features_;
};

}  // namespace prox

#endif  // PROX_BASELINES_CLUSTERING_SUMMARIZER_H_
