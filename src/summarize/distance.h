#ifndef PROX_SUMMARIZE_DISTANCE_H_
#define PROX_SUMMARIZE_DISTANCE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/mapped_allocator.h"
#include "exec/thread_pool.h"
#include "kernels/batch_eval.h"
#include "provenance/expression.h"
#include "summarize/mapping_state.h"
#include "summarize/val_func.h"

namespace prox {

/// One candidate merge of a greedy step: the current annotations `roots`
/// (sorted) merged into the step's scratch summary annotation `scratch`.
struct MergeQuery {
  std::span<const AnnotationId> roots;
  AnnotationId scratch = kNoAnnotation;
};

/// A priced merge: the normalized distance and the size of the candidate
/// expression, plus the wall time spent pricing it.
struct MergePrice {
  double distance = 0.0;
  int64_t size = 0;
  int64_t nanos = 0;
};

class StepPricer;

/// \brief Run-local state of step pricing (EnumeratedDistance::PriceMerges):
/// each candidate's dirty-group VAL-FUNC terms, kept across the steps of
/// one Summarizer::Run under the candidate's sorted roots.
///
/// A group's cached terms stay valid while the group's rows are unchanged
/// — while no winning merge dirtied it (Minoux's lazy greedy at group
/// granularity). Every step compares each group's rows with the previous
/// step's and bumps the group's version when they differ; a cached term
/// is reused only under the versions it was computed at. The cache holds
/// at most kMaxBytes of terms; a candidate whose entry does not fit is
/// evicted (counted in `prox_summarize_pricing_cache_evictions_total`)
/// and prices all of its dirty groups afresh at its next step.
///
/// Entries live in two generations of flat buffers (docs/KERNELS.md,
/// *Across steps*): the step reads last step's generation and writes its
/// own in place at offsets a sizing pre-pass fixed, then Commit swaps the
/// two. Buffers are cleared, never freed, while the run lasts.
class PricingCache {
 public:
  PricingCache();
  ~PricingCache();

  /// Byte cap on cached entries: 2.7x the 6 MiB peak of a 100-user,
  /// 12-movie MovieLens run at 32 steps (docs/KERNELS.md).
  static constexpr size_t kMaxBytes = size_t{16} << 20;

  size_t peak_bytes() const { return peak_bytes_; }
  uint64_t evictions() const { return evictions_; }

 private:
  friend class EnumeratedDistance;
  friend class StepPricer;

  /// The terms of one dirty group of a candidate: a group the merge left
  /// in place, or (`merged`) the group the merge's group-key roots fold
  /// into. `sources` are the current group keys it was computed from,
  /// with their versions. Offsets are relative to the entry's.
  struct Unit {
    bool merged = false;
    uint32_t src_begin = 0;
    uint32_t src_end = 0;
    int64_t size = 0;        ///< size of the group's rows after the merge
    uint32_t terms_off = 0;  ///< chunk-major, kMaxLanes lanes per chunk
  };
  /// One candidate's entry: its ranges of the generation's flat buffers.
  /// Its terms are num_units whole term arrays at terms_off.
  struct Entry {
    uint32_t roots_off = 0;
    uint32_t num_roots = 0;
    uint32_t units_off = 0;
    uint32_t num_units = 0;
    uint32_t src_off = 0;
    uint32_t num_sources = 0;
    size_t terms_off = 0;
  };
  using Source = std::pair<AnnotationId, uint64_t>;
  /// What the byte cap charges an entry beyond its arrays: a fixed header
  /// (three vector headers), so the cap and the peak gauge do not depend
  /// on how entries are laid out.
  static constexpr size_t kEntryHeaderBytes = 3 * sizeof(std::vector<double>);

  /// A generation's array. A run frees its generations when it ends; their
  /// largest arrays (the terms: 235 KB per generation on the perfbench
  /// shape) are mapped directly, so freeing them leaves malloc's
  /// thresholds, and a server's resident set, where they were
  /// (common/mapped_allocator.h).
  template <typename T>
  using Buffer = std::vector<T, MappedAllocator<T>>;

  /// One step's entries, one per merge in candidate order, and the index
  /// of those the byte cap kept.
  struct Generation {
    Buffer<Entry> entries;
    Buffer<AnnotationId> roots;
    Buffer<Unit> units;
    Buffer<Source> sources;
    Buffer<double> terms;
    /// Open addressing with linear probing over the kept entries, keyed
    /// by the FNV-1a hash of their roots: entry index + 1, 0 when empty.
    Buffer<uint32_t> table;

    std::span<const AnnotationId> RootsOf(const Entry& e) const {
      return {roots.data() + e.roots_off, e.num_roots};
    }

    /// The slot of the entry with roots `key`, or the empty slot where
    /// it would go.
    size_t Slot(std::span<const AnnotationId> key) const;
    /// The kept entry with these roots, or null.
    const Entry* Find(std::span<const AnnotationId> key) const;
    /// Indexes entry `i`; false when an entry with its roots is indexed.
    bool Insert(uint32_t i);
    void Clear();
  };
  /// A group of the last priced step: its version, its row content and
  /// the step that last saw it.
  struct GroupState {
    uint64_t version = 0;
    uint64_t seen = 0;
    std::vector<uint64_t> content;
  };

  /// Lays out `next_` for entries of the sizes the pre-pass wrote into
  /// next_.entries (num_roots, num_units, num_sources), copying each
  /// merge's roots in, with each term array `lanes` long.
  void Layout(const std::vector<MergeQuery>& merges, size_t lanes);
  /// Indexes this step's entries in candidate order until the byte cap,
  /// makes them the cached generation and returns the number evicted.
  uint64_t Commit();
  void Clear();

  std::unique_ptr<StepPricer> pricer_;  // the run's step arrays
  Generation cached_;  // last step's entries, read by this step
  Generation next_;    // this step's entries, written in place
  std::unordered_map<AnnotationId, GroupState> groups_;
  std::vector<uint64_t> content_;  // scratch row content of one group
  size_t lanes_ = 0;               // length of one unit's term array
  uint64_t step_ = 0;
  uint64_t next_version_ = 0;
  bool identity_on_groups_ = true;
  size_t bytes_ = 0;
  size_t peak_bytes_ = 0;
  uint64_t evictions_ = 0;
};

/// \brief The distance oracle: computes dist^{h,φ}(p₀, p') (Definition
/// 3.2.2) for candidate summaries against a fixed original expression over
/// an explicitly enumerated valuation set. The set is either a generated
/// class — the thesis's evaluation setting, where V_Ann ("Cancel Single
/// Annotation", "Cancel Single Attribute") is polynomial in the input — or
/// valuations drawn by SampledValuations, which makes the same average the
/// Monte-Carlo estimate of Proposition 4.1.2.
///
/// The oracle pre-evaluates p₀ under every valuation once; each candidate
/// then costs |V| evaluations of the (smaller) candidate expression. The
/// returned distances are normalized into [0,1] by VAL-FUNC's MaxError
/// bound, matching the normalized distances reported in §6.3.
class EnumeratedDistance {
 public:
  /// Valuations per reduction chunk. Fixed (never derived from the thread
  /// count) so the floating-point summation tree — and therefore the
  /// reported distance — is bit-identical at any parallelism level.
  static constexpr int64_t kReductionGrain = 8;

  /// Byte cap on one step's fold checkpoints (docs/KERNELS.md, *Step
  /// pricing*): while rows × chunks × sizeof(kernels::AggAccumulator) fits,
  /// the step keeps the fold state in front of every row; above it, in
  /// front of every k-th row, with k the smallest stride that fits. A
  /// 100-user, 12-movie MovieLens step needs 212 KB (260 rows, 6 chunks).
  static constexpr size_t kMaxCheckpointBytes = size_t{1} << 20;

  /// \param p0 the original expression (must outlive the oracle)
  /// \param registry annotation registry (may grow while the oracle lives)
  /// \param val_func VAL-FUNC (must outlive the oracle)
  /// \param valuations the enumerated or drawn valuation set
  /// \param threads exec thread count (0 = process default, 1 = serial)
  EnumeratedDistance(const ProvenanceExpression* p0,
                     const AnnotationRegistry* registry,
                     const ValFunc* val_func,
                     std::vector<Valuation> valuations, int threads = 1);

  /// Weighted average normalized VAL-FUNC of `cand` (= h(p₀) for the
  /// cumulative h in `state`) against the original expression.
  double Distance(const ProvenanceExpression& cand, const MappingState& state);

  /// The normalization constant (maximum possible error).
  double max_error() const { return max_error_; }

  /// \brief Step pricing: prices every merge of one greedy step against
  /// `current` (= h(p₀) for `state`'s cumulative h) without building the
  /// candidate expressions (docs/KERNELS.md). `(*out)[i]` gets the
  /// distance and size that `Distance(*current.Apply(h_i), state_i)` and
  /// `Size()` would return for merge i, bit for bit.
  ///
  /// A merge of roots R can only change the groups in which an annotation
  /// of R occurs (its *dirty* groups). Once per step this evaluates the
  /// current expression under `state` and keeps every group's VAL-FUNC
  /// terms, every row's lane liveness and the fold state in front of the
  /// rows; each merge then lowers only the rows it moves, splices them
  /// among the rows it keeps, resumes each dirty group's fold at its first
  /// changed row, and folds the per-group terms in ascending group order.
  /// `cache` carries dirty-group terms across the steps of one run.
  /// Expressions and VAL-FUNCs without a batch lowering (DDP, polynomial,
  /// group-less aggregates, kNone) have every group dirty: they build
  /// each candidate and call Distance. Merges fan out over `pool`.
  void PriceMerges(const ProvenanceExpression& current,
                   const MappingState& state,
                   const std::vector<MergeQuery>& merges,
                   exec::ThreadPool* pool, PricingCache* cache,
                   std::vector<MergePrice>* out);

  size_t num_valuations() const { return valuations_.size(); }
  const std::vector<Valuation>& valuations() const { return valuations_; }
  /// Cached v(p₀) per valuation, aligned with valuations(): the base side
  /// of every Distance call (packed once into the batch kernels' blocks;
  /// read per valuation by the scalar reference path).
  const std::vector<EvalResult>& base_evals() const { return base_evals_; }
  const AnnotationRegistry* registry() const { return registry_; }

 private:
  friend class StepPricer;

  /// Packs base_evals_ into per-chunk BlockEvals for the batch kernels
  /// (kernels/batch_eval.h), lazily and once — Distance runs concurrently
  /// on exec workers during candidate scoring. Returns base_blocks_ok_.
  bool EnsureBaseBlocks();

  /// Fills `block` with chunk `c`'s valuations transformed by `state`
  /// (v^{h,φ}, one lane per valuation).
  void TransformChunk(const MappingState& state, size_t c,
                      kernels::ValuationBlock* block) const;

  /// Counts one merge priced by step pricing the way one batched Distance
  /// call counts it; `identity` when its group remap is the identity.
  void CountPricedMerge(bool identity) const;

  const ProvenanceExpression* p0_;
  const AnnotationRegistry* registry_;
  const ValFunc* val_func_;
  std::vector<Valuation> valuations_;
  std::vector<EvalResult> base_evals_;  // v(p₀) per valuation, cached
  double total_weight_ = 0.0;
  double max_error_ = 1.0;
  exec::PoolRef pool_;

  // Batch-kernel state (makes the oracle non-copyable; it is always used
  // in place). base_groups_ is the shared coordinate layout of every
  // base evaluation; kernels::BuildGroupRemap maps it into each
  // candidate's layout through the cumulative homomorphism.
  std::once_flag base_blocks_once_;
  bool base_blocks_ok_ = false;
  EvalResult::Kind base_kind_ = EvalResult::Kind::kScalar;
  std::vector<AnnotationId> base_groups_;
  std::vector<kernels::BlockEval> base_blocks_;  // one per grain-8 chunk
};

}  // namespace prox

#endif  // PROX_SUMMARIZE_DISTANCE_H_
