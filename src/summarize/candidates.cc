#include "summarize/candidates.h"

#include <algorithm>
#include <cassert>

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

/// C(n, k). Each partial product is itself a binomial times (i + 1), so
/// every division is exact.
uint64_t Binomial(uint64_t n, uint64_t k) {
  if (k > n) return 0;
  uint64_t c = 1;
  for (uint64_t i = 0; i < k; ++i) c = c * (n - i) / (i + 1);
  return c;
}

/// Fills `buckets` with the annotations of `current` whose domain has a
/// rule, in (domain, annotation) order; `anns` is scratch.
void CollectBuckets(const ProvenanceExpression& current,
                    const ConstraintSet& constraints,
                    const AnnotationRegistry& registry,
                    std::vector<AnnotationId>* anns,
                    std::vector<std::pair<DomainId, AnnotationId>>* buckets) {
  anns->clear();
  current.CollectAnnotations(anns);
  // The annotations arrive sorted, so sorting the pairs keeps each bucket
  // in that order.
  buckets->clear();
  for (AnnotationId a : *anns) {
    const DomainId d = registry.domain(a);
    if (constraints.HasRule(d)) buckets->emplace_back(d, a);
  }
  std::sort(buckets->begin(), buckets->end());
}

}  // namespace

void CandidateGenerator::Emit(DomainId domain,
                              std::span<const AnnotationId> roots,
                              const MappingState& state,
                              std::vector<AnnotationId>* members,
                              std::vector<Candidate>* list,
                              std::vector<AnnotationId>* roots_buf) const {
  // Constraint check runs on the union of original members.
  members->clear();
  for (AnnotationId r : roots) {
    const std::span<const AnnotationId> ms = state.Members(r);
    members->insert(members->end(), ms.begin(), ms.end());
  }
  MergeDecision decision = constraints_->Evaluate(domain, *members, *ctx_);
  if (!decision.allowed) return;
  Candidate& c = list->emplace_back();
  c.offset = static_cast<uint32_t>(roots_buf->size());
  c.arity = static_cast<uint32_t>(roots.size());
  c.domain = domain;
  c.prev = -1;
  c.decision = std::move(decision);
  roots_buf->insert(roots_buf->end(), roots.begin(), roots.end());
}

void CandidateGenerator::GenerateAll(const ProvenanceExpression& current,
                                     const MappingState& state, int arity,
                                     CandidateSet* out) const {
  CollectBuckets(current, *constraints_, *ctx_->registry, &out->anns_,
                 &out->buckets_);
  out->all_.clear();
  out->roots_.clear();
  const std::vector<std::pair<DomainId, AnnotationId>>& buckets =
      out->buckets_;
  std::vector<AnnotationId>& roots = out->subset_roots_;
  roots.resize(static_cast<size_t>(arity));
  for (size_t lo = 0; lo < buckets.size();) {
    const DomainId domain = buckets[lo].first;
    size_t hi = lo;
    while (hi < buckets.size() && buckets[hi].first == domain) ++hi;
    ForEachSubset(static_cast<int>(hi - lo), arity, &out->subset_,
                  [&](const int* subset) {
                    for (int i = 0; i < arity; ++i) {
                      roots[i] = buckets[lo + subset[i]].second;
                    }
                    Emit(domain, roots, state, &out->members_, &out->all_,
                         &out->roots_);
                  });
    lo = hi;
  }
}

void CandidateGenerator::Carry(const MappingState& state, int arity,
                               CandidateSet* out) const {
  // A verdict depends only on its members' original members, which never
  // change for a live annotation: the last step's verdicts stand for every
  // candidate without a root in the last merge.
  const MappingState::LastMerge last = state.last_merge();
  const DomainId domain = ctx_->registry->domain(last.summary);
  auto is_merged = [&](AnnotationId a) {
    return std::binary_search(last.roots.begin(), last.roots.end(), a);
  };

  // The annotations: the merged roots give way to their summary.
  std::vector<std::pair<DomainId, AnnotationId>>& buckets = out->buckets_;
  std::erase_if(buckets, [&](const auto& b) { return is_merged(b.second); });
  const std::pair<DomainId, AnnotationId> summary{domain, last.summary};
  if (constraints_->HasRule(domain)) {
    buckets.insert(std::upper_bound(buckets.begin(), buckets.end(), summary),
                   summary);
  }

  // The fresh candidates: the summary with every (arity - 1)-subset of the
  // other annotations of its domain, in roots order (the summary takes the
  // same place among every subset's sorted roots, so the subsets' order
  // carries over).
  out->fresh_.clear();
  out->fresh_roots_.clear();
  const auto at = std::lower_bound(buckets.begin(), buckets.end(), summary);
  if (at != buckets.end() && *at == summary) {
    auto lo = at;
    while (lo != buckets.begin() && (lo - 1)->first == domain) --lo;
    auto hi = at;
    while (hi != buckets.end() && hi->first == domain) ++hi;
    const int place = static_cast<int>(at - lo);
    std::vector<AnnotationId>& roots = out->subset_roots_;
    ForEachSubset(static_cast<int>(hi - lo) - 1, arity - 1, &out->subset_,
                  [&](const int* subset) {
                    roots.clear();
                    for (int i = 0; i < arity - 1; ++i) {
                      roots.push_back(
                          lo[subset[i] < place ? subset[i] : subset[i] + 1]
                              .second);
                    }
                    roots.insert(std::upper_bound(roots.begin(), roots.end(),
                                                  last.summary),
                                 last.summary);
                    Emit(domain, roots, state, &out->members_, &out->fresh_,
                         &out->fresh_roots_);
                  });
  }

  // The last step's index of each candidate it listed: its position in
  // the subsample when one was drawn.
  std::vector<int32_t>& view_index = out->view_index_;
  if (out->sampled_) {
    view_index.assign(out->all_.size(), -1);
    for (size_t v = 0; v < out->sample_index_.size(); ++v) {
      view_index[out->sample_index_[v]] = static_cast<int32_t>(v);
    }
  }

  // Merge the carried candidates and the fresh ones in (domain, roots)
  // order.
  std::vector<Candidate>& next = out->next_;
  std::vector<AnnotationId>& next_roots = out->next_roots_;
  next.clear();
  next_roots.clear();
  auto push = [&](Candidate* c, std::span<const AnnotationId> roots,
                  int32_t prev) {
    Candidate& n = next.emplace_back(std::move(*c));
    n.offset = static_cast<uint32_t>(next_roots.size());
    n.prev = prev;
    next_roots.insert(next_roots.end(), roots.begin(), roots.end());
  };
  auto roots_of = [](const std::vector<AnnotationId>& buf,
                     const Candidate& c) {
    return std::span<const AnnotationId>(buf.data() + c.offset, c.arity);
  };
  std::vector<Candidate>& all = out->all_;
  size_t j = 0;
  size_t f = 0;
  for (;;) {
    while (j < all.size()) {
      const std::span<const AnnotationId> r = roots_of(out->roots_, all[j]);
      if (std::none_of(r.begin(), r.end(), is_merged)) break;
      ++j;
    }
    if (j == all.size() && f == out->fresh_.size()) break;
    bool carried = f == out->fresh_.size();
    if (!carried && j < all.size()) {
      const Candidate& a = all[j];
      const Candidate& b = out->fresh_[f];
      const std::span<const AnnotationId> ra = roots_of(out->roots_, a);
      const std::span<const AnnotationId> rb = roots_of(out->fresh_roots_, b);
      carried = a.domain != b.domain
                    ? a.domain < b.domain
                    : std::lexicographical_compare(ra.begin(), ra.end(),
                                                   rb.begin(), rb.end());
    }
    if (carried) {
      const int32_t prev = out->sampled_ ? view_index[j]
                                         : static_cast<int32_t>(j);
      push(&all[j], roots_of(out->roots_, all[j]), prev);
      ++j;
    } else {
      push(&out->fresh_[f], roots_of(out->fresh_roots_, out->fresh_[f]), -1);
      ++f;
    }
  }
  std::swap(all, next);
  std::swap(out->roots_, next_roots);
}

void CandidateGenerator::Generate(const ProvenanceExpression& current,
                                  const MappingState& state,
                                  const CandidateOptions& options,
                                  CandidateSet* out) const {
  const CandidateMetrics& metrics = CandidateMetrics::Get();
  obs::TraceSpan generate_span("summarize.candidate_gen");
  const int k = options.arity;
  if (out->arity_ == k && state.OneMergePast(out->mark_)) {
    Carry(state, k, out);
#ifndef NDEBUG
    std::vector<AnnotationId> anns;
    std::vector<std::pair<DomainId, AnnotationId>> buckets;
    CollectBuckets(current, *constraints_, *ctx_->registry, &anns, &buckets);
    assert(buckets == out->buckets_);
#endif
  } else {
    GenerateAll(current, state, k, out);
  }
  out->mark_ = state.mark();
  out->arity_ = k;

  // Every subset of each domain's annotations was either allowed or
  // rejected, whether this step evaluated it or carried its verdict.
  const std::vector<std::pair<DomainId, AnnotationId>>& buckets =
      out->buckets_;
  uint64_t subsets = 0;
  for (size_t lo = 0; lo < buckets.size();) {
    size_t hi = lo;
    while (hi < buckets.size() && buckets[hi].first == buckets[lo].first) ++hi;
    subsets += Binomial(hi - lo, static_cast<uint64_t>(k));
    lo = hi;
  }
  std::vector<Candidate>& all = out->all_;
  metrics.rejected->Increment(subsets - all.size());
  metrics.generated->Increment(all.size());

  out->sampled_ = options.max_candidates > 0 &&
                  all.size() > options.max_candidates;
  if (out->sampled_) {
    metrics.subsampled->Increment(all.size() - options.max_candidates);
    // Deterministic uniform subsample (partial Fisher-Yates), preserving
    // the original order of the survivors for reproducibility. The step
    // sees the sample; the next step carries every allowed candidate.
    std::vector<uint32_t>& indices = out->sample_index_;
    indices.resize(all.size());
    for (size_t i = 0; i < indices.size(); ++i) {
      indices[i] = static_cast<uint32_t>(i);
    }
    Rng rng(options.sample_seed);
    for (size_t i = 0; i < options.max_candidates; ++i) {
      size_t j = i + rng.PickIndex(indices.size() - i);
      std::swap(indices[i], indices[j]);
    }
    indices.resize(options.max_candidates);
    std::sort(indices.begin(), indices.end());
    out->sample_.resize(indices.size());
    for (size_t v = 0; v < indices.size(); ++v) {
      out->sample_[v] = all[indices[v]];
    }
  }
}

}  // namespace prox
