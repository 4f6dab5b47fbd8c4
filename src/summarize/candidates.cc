#include "summarize/candidates.h"

#include <algorithm>

#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace prox {

namespace {

/// Metric handles for candidate generation (docs/OBSERVABILITY.md).
struct CandidateMetrics {
  obs::Counter* generated;
  obs::Counter* rejected;
  obs::Counter* subsampled;

  static const CandidateMetrics& Get() {
    static const CandidateMetrics m = [] {
      auto& r = obs::MetricsRegistry::Default();
      CandidateMetrics m;
      m.generated = r.GetCounter(
          "prox_candidates_generated_total",
          "Constraint-allowed candidate merges emitted by Generate().");
      m.rejected = r.GetCounter(
          "prox_candidates_rejected_total",
          "Candidate merges rejected by the mapping constraints.");
      m.subsampled = r.GetCounter(
          "prox_candidates_subsampled_total",
          "Candidates dropped by the max_candidates uniform subsample.");
      return m;
    }();
    return m;
  }
};

/// Calls `emit` with the indices of every size-k subset of [0, n), in
/// lexicographic order, reusing `idx` as the subset.
template <typename Emit>
void ForEachSubset(int n, int k, std::vector<int>* idx, Emit emit) {
  if (k > n || k <= 0) return;
  idx->resize(k);
  int* const s = idx->data();
  for (int i = 0; i < k; ++i) s[i] = i;
  for (;;) {
    emit(s);
    int i = k - 1;
    while (i >= 0 && s[i] == n - k + i) --i;
    if (i < 0) return;
    ++s[i];
    for (int j = i + 1; j < k; ++j) s[j] = s[j - 1] + 1;
  }
}

}  // namespace

void CandidateGenerator::Generate(const ProvenanceExpression& current,
                                  const MappingState& state,
                                  const CandidateOptions& options,
                                  CandidateSet* out) const {
  const CandidateMetrics& metrics = CandidateMetrics::Get();
  obs::TraceSpan generate_span("summarize.candidate_gen");
  out->candidates_.clear();
  out->roots_.clear();
  out->anns_.clear();
  current.CollectAnnotations(&out->anns_);

  // Bucket current annotations by domain; only domains with a rule can
  // yield candidates. The annotations arrive sorted, so sorting the pairs
  // keeps each bucket in that order.
  std::vector<std::pair<DomainId, AnnotationId>>& buckets = out->buckets_;
  buckets.clear();
  for (AnnotationId a : out->anns_) {
    DomainId d = ctx_->registry->domain(a);
    if (constraints_->HasRule(d)) buckets.emplace_back(d, a);
  }
  std::sort(buckets.begin(), buckets.end());

  uint64_t rejected = 0;
  std::vector<AnnotationId>& members = out->members_;
  for (size_t lo = 0; lo < buckets.size();) {
    const DomainId domain = buckets[lo].first;
    size_t hi = lo;
    while (hi < buckets.size() && buckets[hi].first == domain) ++hi;
    const std::pair<DomainId, AnnotationId>* bucket = buckets.data() + lo;
    const int k = options.arity;
    ForEachSubset(static_cast<int>(hi - lo), k, &out->subset_,
                  [&](const int* subset) {
      // Constraint check runs on the union of original members.
      members.clear();
      for (int i = 0; i < k; ++i) {
        const std::span<const AnnotationId> ms =
            state.Members(bucket[subset[i]].second);
        members.insert(members.end(), ms.begin(), ms.end());
      }
      MergeDecision decision = constraints_->Evaluate(domain, members, *ctx_);
      if (!decision.allowed) {
        ++rejected;
        return;
      }
      Candidate& c = out->candidates_.emplace_back();
      c.offset = static_cast<uint32_t>(out->roots_.size());
      c.arity = static_cast<uint32_t>(k);
      c.domain = domain;
      c.decision = std::move(decision);
      for (int i = 0; i < k; ++i) {
        out->roots_.push_back(bucket[subset[i]].second);
      }
    });
    lo = hi;
  }

  std::vector<Candidate>& candidates = out->candidates_;
  metrics.rejected->Increment(rejected);
  metrics.generated->Increment(candidates.size());
  if (options.max_candidates > 0 &&
      candidates.size() > options.max_candidates) {
    metrics.subsampled->Increment(candidates.size() - options.max_candidates);
    // Deterministic uniform subsample (partial Fisher-Yates), preserving
    // the original order of the survivors for reproducibility. Survivors
    // keep their roots where they are in the buffer.
    Rng rng(options.sample_seed);
    std::vector<size_t> indices(candidates.size());
    for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
    for (size_t i = 0; i < options.max_candidates; ++i) {
      size_t j = i + rng.PickIndex(indices.size() - i);
      std::swap(indices[i], indices[j]);
    }
    indices.resize(options.max_candidates);
    std::sort(indices.begin(), indices.end());
    for (size_t i = 0; i < indices.size(); ++i) {
      if (indices[i] != i) candidates[i] = std::move(candidates[indices[i]]);
    }
    candidates.resize(indices.size());
  }
}

}  // namespace prox
