#include "baselines/clustering_summarizer.h"

#include <algorithm>

#include "common/timer.h"
#include "exec/thread_pool.h"
#include "ir/adopt.h"
#include "ir/term_pool.h"

namespace prox {

ClusteringSummarizer::ClusteringSummarizer(const ProvenanceExpression* p0,
                                           AnnotationRegistry* registry,
                                           const SemanticContext* ctx,
                                           const ConstraintSet* constraints,
                                           EnumeratedDistance* oracle,
                                           ClusteringOptions options)
    : p0_(p0),
      registry_(registry),
      ctx_(ctx),
      constraints_(constraints),
      oracle_(oracle),
      options_(std::move(options)) {}

void ClusteringSummarizer::SetFeatures(
    DomainId domain, std::map<AnnotationId, RatingVector> features) {
  features_[domain] = std::move(features);
}

Result<SummaryOutcome> ClusteringSummarizer::Run() {
  if (features_.empty()) {
    return Status::FailedPrecondition(
        "clustering requires feature vectors; call SetFeatures first");
  }

  Timer run_timer;

  // Restrict clustering to items that actually appear in p0.
  std::vector<AnnotationId> p0_anns;
  p0_->CollectAnnotations(&p0_anns);

  std::vector<DomainClustering> clusterings;
  for (auto& [domain, feats] : features_) {
    DomainClustering dc;
    dc.domain = domain;
    for (const auto& [ann, vec] : feats) {
      (void)vec;
      if (std::binary_search(p0_anns.begin(), p0_anns.end(), ann)) {
        dc.items.push_back(ann);
      }
    }
    if (dc.items.size() < 2) continue;

    const size_t n = dc.items.size();
    std::vector<std::vector<double>> dist(n, std::vector<double>(n, 0.0));
    // The O(n²) fill fans out by row: row i writes cells (i, j>i) and
    // their mirrors (j, i), and every cell has exactly one writing row, so
    // workers never collide and the matrix is identical at any thread
    // count.
    exec::PoolRef pool(options_.threads);
    exec::ParallelFor(
        pool.pool(), 0, static_cast<int64_t>(n), 1, [&](int64_t row) {
          const size_t i = static_cast<size_t>(row);
          for (size_t j = i + 1; j < n; ++j) {
            double d = PearsonDissimilarity(feats.at(dc.items[i]),
                                            feats.at(dc.items[j]));
            dist[i][j] = d;
            dist[j][i] = d;
          }
        });
    dc.hac = std::make_unique<HacClusterer>(std::move(dist),
                                            options_.linkage);
    for (size_t i = 0; i < n; ++i) {
      dc.cluster_ann[static_cast<int>(i)] = dc.items[i];
    }
    clusterings.push_back(std::move(dc));
  }

  // The constraint callback maps cluster member indices back to original
  // annotations and applies the dataset's mapping constraints — the §6.2
  // modification of HAC. Installed only after the clusterings vector is
  // final, so the captured item lists have stable addresses.
  for (DomainClustering& dc : clusterings) {
    const std::vector<AnnotationId>* items = &dc.items;
    DomainId d = dc.domain;
    dc.hac->set_constraint(
        [this, items, d](const std::vector<int>& a, const std::vector<int>& b) {
          std::vector<AnnotationId> members;
          members.reserve(a.size() + b.size());
          for (int i : a) members.push_back((*items)[i]);
          for (int i : b) members.push_back((*items)[i]);
          return constraints_->Evaluate(d, members, *ctx_).allowed;
        });
  }

  if (clusterings.empty()) {
    return Status::FailedPrecondition(
        "no clusterable domain has at least two items in the expression");
  }

  SummaryOutcome outcome{nullptr, MappingState(registry_, options_.phi), {},
                         0.0, 0, false, 0, 0.0};
  MappingState& state = outcome.state;
  // A run-local copy, as in the Summarizer: Apply interns into this pool,
  // never into p0's (docs/IR.md).
  std::unique_ptr<ProvenanceExpression> current =
      ir::Adopt(*p0_, std::make_shared<ir::TermPool>());
  double dist = oracle_->Distance(*current, state);

  std::unique_ptr<ProvenanceExpression> prev_expr;
  MappingState prev_state = state;
  double prev_dist = dist;

  int step = 0;
  while (step < options_.max_steps && current->Size() > options_.target_size &&
         dist < options_.target_dist) {
    Timer step_timer;
    // Globally smallest allowed merge across the per-domain clusterings.
    DomainClustering* best_dc = nullptr;
    double best_d = std::numeric_limits<double>::infinity();
    for (auto& dc : clusterings) {
      auto peek = dc.hac->PeekNext();
      if (peek.has_value() && peek->second < best_d) {
        best_d = peek->second;
        best_dc = &dc;
      }
    }
    if (best_dc == nullptr) break;

    auto merge = best_dc->hac->MergeNext();
    if (!merge.has_value()) break;

    std::vector<AnnotationId> members;
    members.reserve(merge->members.size());
    for (int idx : merge->members) members.push_back(best_dc->items[idx]);
    MergeDecision decision =
        constraints_->Evaluate(best_dc->domain, members, *ctx_);
    std::string name =
        decision.allowed ? decision.name
                         : "cluster" + std::to_string(merge->merged_cluster);

    AnnotationId summary = registry_->AddSummary(best_dc->domain, name);
    std::vector<AnnotationId> roots = {
        best_dc->cluster_ann.at(merge->cluster_a),
        best_dc->cluster_ann.at(merge->cluster_b)};
    best_dc->cluster_ann.erase(merge->cluster_a);
    best_dc->cluster_ann.erase(merge->cluster_b);
    best_dc->cluster_ann[merge->merged_cluster] = summary;

    prev_expr = std::move(current);
    prev_state = state;
    prev_dist = dist;

    state.Merge(roots, summary);
    Homomorphism h;
    for (AnnotationId root : roots) h.Set(root, summary);
    current = prev_expr->Apply(h);
    dist = oracle_->Distance(*current, state);
    ++step;

    StepRecord record;
    record.step = step;
    record.merged_roots = roots;
    record.summary = summary;
    record.summary_name = registry_->name(summary);
    record.distance = dist;
    record.size = current->Size();
    record.score = merge->dissimilarity;
    record.num_candidates = 0;
    record.step_nanos = static_cast<double>(step_timer.ElapsedNanos());
    outcome.steps.push_back(std::move(record));
  }

  if (dist >= options_.target_dist && prev_expr != nullptr) {
    current = std::move(prev_expr);
    state = prev_state;
    dist = prev_dist;
    outcome.rolled_back = true;
  }

  outcome.summary = std::move(current);
  outcome.final_distance = dist;
  outcome.final_size = outcome.summary->Size();
  outcome.total_nanos = static_cast<double>(run_timer.ElapsedNanos());
  return outcome;
}

}  // namespace prox
