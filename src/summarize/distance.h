#ifndef PROX_SUMMARIZE_DISTANCE_H_
#define PROX_SUMMARIZE_DISTANCE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
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
/// `prev` is the index of the merge with the same roots among the previous
/// step's merges (Candidate::prev), or -1.
struct MergeQuery {
  std::span<const AnnotationId> roots;
  AnnotationId scratch = kNoAnnotation;
  int32_t prev = -1;
};

/// A priced merge: the normalized distance and the size of the candidate
/// expression.
struct MergePrice {
  double distance = 0.0;
  int64_t size = 0;
};

class StepPricer;

/// \brief Run-local state of step pricing (EnumeratedDistance::ShapeMerges):
/// what one step of a Summarizer::Run carries into the next — each merge's
/// size change and dirty-group VAL-FUNC terms, the groups' versions — and
/// the step arrays, kept with their capacity.
///
/// A step is *carried* when its state is one merge past the last shaped
/// and committed step's (MappingState::OneMergePast); every other step
/// (a run's first, a call on an unrelated state) is full. A carried step's
/// rows are the last step's except the *changed* rows: those that contain
/// the last merge's summary annotation s, and the rows of s's group. It
/// bumps the version of every group with a changed row and gives the new
/// keys fresh versions; every other group keeps its version. A cached term
/// is reused only under the versions it was computed at, so an unchanged
/// group's terms carry over (Minoux's lazy greedy over the groups a merge
/// dirties). A full step gives every group a fresh version. The cache
/// holds at most kMaxBytes of terms; a candidate whose entry does not fit
/// is evicted (counted in `prox_summarize_pricing_cache_evictions_total`)
/// and prices all of its dirty groups afresh at its next step.
///
/// Entries live in two generations of flat buffers (docs/KERNELS.md,
/// *Across steps*): the step reads last step's generation, finding a
/// merge's entry through MergeQuery::prev, and writes its own, one entry
/// per merge whose distance the step folded, in place at offsets fixed from
/// the shape pass's counts; then Commit swaps the two. A merge a bounded
/// step left unfolded has no entry, so it prices its dirty groups afresh at
/// its next step. Buffers are cleared, never freed, while the run lasts.
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
    uint32_t merge = 0;  ///< the merge's index among its step's merges
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

  /// One step's entries, one per folded merge in the order they were
  /// folded, and for each of the step's merges its kept entry.
  struct Generation {
    Buffer<Entry> entries;
    Buffer<Unit> units;
    Buffer<Source> sources;
    Buffer<double> terms;
    /// Merge i's kept entry index + 1, 0 when it has none.
    Buffer<uint32_t> entry_of;

    /// Merge `i`'s kept entry, or null.
    const Entry* Find(int32_t i) const {
      return i < 0 || static_cast<size_t>(i) >= entry_of.size() ||
                     entry_of[i] == 0
                 ? nullptr
                 : &entries[entry_of[i] - 1];
    }
    void Clear();
  };

  /// Keeps this step's entries in order until the byte cap, indexes them
  /// by merge among the step's `num_merges`, makes them the cached
  /// generation and returns the number evicted.
  uint64_t Commit(size_t num_merges);
  void Clear();

  std::unique_ptr<StepPricer> pricer_;  // the run's step arrays
  Generation cached_;  // last step's entries, read by this step
  Generation next_;    // this step's entries, written in place
  // The point of the run the last shaped step priced, and whether that
  // step was committed: the next step carries it when its state is one
  // merge past the mark.
  MappingState::Mark mark_;
  bool committed_ = false;
  size_t lanes_ = 0;  // length of one unit's term array
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
  /// Valuations per reduction chunk, one per batch-kernel lane. A distance
  /// adds each chunk's weighted errors in lane order and the chunk partials
  /// in ascending chunk order, so its summation tree depends only on the
  /// number of valuations.
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
  EnumeratedDistance(const ProvenanceExpression* p0,
                     const AnnotationRegistry* registry,
                     const ValFunc* val_func,
                     std::vector<Valuation> valuations);

  /// Weighted average normalized VAL-FUNC of `cand` against the original
  /// expression, priced through the batch kernels (docs/KERNELS.md) on the
  /// calling thread.
  ///
  /// Precondition: `cand` is h(p₀) for the cumulative h in `state`. Every
  /// base evaluation comes from p₀'s Evaluate, which emits every group, so
  /// the base layout always packs and always remaps into h(p₀)'s groups;
  /// both are asserted, not handled. The spec this path is checked against
  /// (a per-valuation loop over Evaluate and VAL-FUNC Compute) lives in
  /// tests/testing/reference_summarizer.h.
  double Distance(const ProvenanceExpression& cand, const MappingState& state);

  /// The normalization constant (maximum possible error).
  double max_error() const { return max_error_; }

  /// \brief Step pricing: prices the merges of one greedy step against
  /// `current` (= h(p₀) for `state`'s cumulative h) without building the
  /// candidate expressions (docs/KERNELS.md). A merge gets the distance and
  /// size that `Distance(*current.Apply(h_i), state_i)` and `Size()` would
  /// return for it, bit for bit.
  ///
  /// A merge of roots R can only change the groups in which an annotation
  /// of R occurs (its *dirty* groups). Once per step this evaluates the
  /// current expression under `state` and keeps every group's VAL-FUNC
  /// terms, every row's lane liveness and the fold state in front of the
  /// rows; each merge then counts its exact size without lowering, and a
  /// merge whose distance is folded lowers only the rows it moves, splices
  /// them among the rows it keeps, resumes each dirty group's fold at its
  /// first changed row, and folds the per-group terms in ascending group
  /// order. `cache` carries dirty-group terms across the steps of one run.
  ///
  /// This is the shape pass: it prepares the step and sizes every merge, on
  /// the calling thread.
  /// On a carried step (PricingCache), a merge with a `prev` none of whose
  /// roots the last merge touched — none occurs in a changed row or keys
  /// the group of one — changes the size by what it did at the previous
  /// step, and is sized from there (counted in
  /// `prox_summarize_merges_carried_total`). Every other merge's dirty
  /// groups (through the step's occurrence index), cache reuse, moved rows
  /// and exact candidate size, counted by IrAggregateExpression::MovedSize,
  /// are fixed here; a carried merge's are fixed by FoldMerges if it folds
  /// it. Nothing is lowered until FoldMerges. `out` gets one price per
  /// merge, its size set. The merges must stay alive, unchanged, until
  /// CommitStep. False when the expression or VAL-FUNC has no step
  /// pricing: nothing is kept, `cache` is cleared, and the caller prices
  /// with MaterializeMerges.
  bool ShapeMerges(const ProvenanceExpression& current,
                   const MappingState& state,
                   const std::vector<MergeQuery>& merges,
                   PricingCache* cache, std::vector<MergePrice>* out);

  /// Step pricing's fold pass: shapes the carried merges of `which`
  /// (indices into the shaped merges, each folded at most once per step) on
  /// the calling thread, then lowers the rows each merge moves and sets
  /// (*out)[i].distance, fanning the merges out over `pool`. Only folded
  /// merges count as priced in the oracle's and kernels' counters.
  void FoldMerges(std::span<const uint32_t> which, exec::ThreadPool* pool,
                  PricingCache* cache, std::vector<MergePrice>* out);

  /// Ends a shaped step: the folded merges' entries become the generation
  /// the next step reads.
  void CommitStep(PricingCache* cache);

  /// Prices every merge by building its candidate with Apply and calling
  /// Distance and Size, fanning the merges out over `pool`: the step
  /// pricing of expressions without a per-group term (DDP, polynomial,
  /// group-less aggregates) or VAL-FUNCs without one (DdpDifference).
  void MaterializeMerges(const ProvenanceExpression& current,
                         const MappingState& state,
                         const std::vector<MergeQuery>& merges,
                         exec::ThreadPool* pool,
                         std::vector<MergePrice>* out);

  size_t num_valuations() const { return valuations_.size(); }
  const std::vector<Valuation>& valuations() const { return valuations_; }
  const AnnotationRegistry* registry() const { return registry_; }

 private:
  friend class StepPricer;

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
  double total_weight_ = 0.0;
  double max_error_ = 1.0;

  // v(p₀) per valuation, packed once by the constructor into one BlockEval
  // per grain-8 chunk (kernels/batch_eval.h). base_groups_ is the shared
  // coordinate layout of every base evaluation; kernels::BuildGroupRemap
  // maps it into each candidate's layout through the cumulative
  // homomorphism.
  EvalResult::Kind base_kind_ = EvalResult::Kind::kScalar;
  std::vector<AnnotationId> base_groups_;
  std::vector<kernels::BlockEval> base_blocks_;  // one per grain-8 chunk
};

}  // namespace prox

#endif  // PROX_SUMMARIZE_DISTANCE_H_
