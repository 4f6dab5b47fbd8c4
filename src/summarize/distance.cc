#include "summarize/distance.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstring>
#include <optional>
#include <utility>

#include "exec/thread_pool.h"
#include "ir/agg_expr.h"
#include "kernels/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace prox {

namespace {

/// Metric handles for the distance oracle (docs/OBSERVABILITY.md).
struct DistanceMetrics {
  obs::Counter* enumerated_calls;
  obs::Counter* enumerated_evals;
  obs::Counter* base_eval_reuse;
  obs::Counter* groups_priced;
  obs::Counter* groups_reused;
  obs::Counter* rows_refolded;
  obs::Counter* cache_evictions;
  obs::Counter* merges_carried;

  static const DistanceMetrics& Get() {
    static const DistanceMetrics m = [] {
      auto& r = obs::MetricsRegistry::Default();
      DistanceMetrics m;
      m.enumerated_calls = r.GetCounter(
          "prox_distance_enumerated_calls_total",
          "Candidates priced by the distance oracle (Distance calls and "
          "step-priced merges).");
      m.enumerated_evals = r.GetCounter(
          "prox_distance_enumerated_evals_total",
          "Candidate-expression evaluations performed by the distance "
          "oracle (one per valuation per call).");
      m.base_eval_reuse = r.GetCounter(
          "prox_distance_base_eval_reuse_total",
          "Cached base evaluations fed to VAL-FUNC directly via the "
          "identity-on-groups fast path (no re-projection).");
      m.groups_priced = r.GetCounter(
          "prox_summarize_groups_priced_total",
          "Dirty groups of candidate merges re-canonicalized and evaluated "
          "by step pricing.");
      m.groups_reused = r.GetCounter(
          "prox_summarize_groups_reused_total",
          "Dirty groups of candidate merges whose VAL-FUNC terms came from "
          "the cross-step pricing cache.");
      m.rows_refolded = r.GetCounter(
          "prox_summarize_rows_refolded_total",
          "Rows step pricing folded for dirty groups of candidate merges, "
          "from each group's resumed fold state on.");
      m.cache_evictions = r.GetCounter(
          "prox_summarize_pricing_cache_evictions_total",
          "Candidate entries dropped by the pricing cache's byte cap.");
      m.merges_carried = r.GetCounter(
          "prox_summarize_merges_carried_total",
          "Candidate merges whose size step pricing carried from the "
          "previous step instead of shaping them.");
      return m;
    }();
    return m;
  }
};

/// Lanes of every valuation block and of every chunk's term arrays: one
/// reduction chunk fills one block.
constexpr size_t kLanes = kernels::kMaxLanes;
static_assert(static_cast<size_t>(EnumeratedDistance::kReductionGrain) ==
              kLanes);

/// One group's VAL-FUNC term on one lane — what the batch error kernel
/// folds per group (kernels_impl.h, ValFuncErrorsImpl): |d| for L1, d² for
/// L2, and for Disagreement the mismatch bit.
double GroupTerm(kernels::ValFuncBatchKind kind, double b, double c) {
  if (kind == kernels::ValFuncBatchKind::kDisagreement) {
    return b == c ? 0.0 : 1.0;
  }
  const double d = b - c;
  return kind == kernels::ValFuncBatchKind::kL1 ? std::abs(d) : d * d;
}

/// Grows `v` to `n` elements, keeping its contents: a buffer that must grow
/// grows to exactly `n`, not geometrically, so a generation holds what its
/// largest step needed.
template <typename Vector>
void GrowExactly(Vector* v, size_t n) {
  if (n > v->capacity()) v->reserve(n);
  v->resize(n);
}

/// A fresh unit's size from its lowered rows: the kept group's size, less
/// its moved rows [mv, mv_end), plus the lowered rows. The shape pass
/// counted the same size with MovedSize, without lowering.
[[maybe_unused]] int64_t LoweredUnitSize(
    const ir::MovedRows& lowered,
    const std::vector<kernels::AggBatchRow>& rows, const uint32_t* mv,
    const uint32_t* mv_end, int64_t group_size) {
  int64_t size = group_size;
  for (; mv != mv_end; ++mv) {
    size -= rows[*mv].mono.len + rows[*mv].guard_mono.len;
  }
  for (const kernels::AggBatchRow& r : lowered.rows) {
    size += r.mono.len + r.guard_mono.len;
  }
  return size;
}

}  // namespace

void PricingCache::Generation::Clear() {
  entries.clear();
  units.clear();
  sources.clear();
  terms.clear();
  entry_of.clear();
}

uint64_t PricingCache::Commit(size_t num_merges) {
  next_.entry_of.assign(num_merges, 0);
  bytes_ = 0;
  uint64_t evicted = 0;
  for (size_t i = 0; i < next_.entries.size(); ++i) {
    const Entry& e = next_.entries[i];
    const size_t b = kEntryHeaderBytes + e.num_units * sizeof(Unit) +
                     e.num_sources * sizeof(Source) +
                     e.num_units * lanes_ * sizeof(double);
    if (bytes_ + b > kMaxBytes) {
      ++evicted;
      continue;
    }
    next_.entry_of[e.merge] = static_cast<uint32_t>(i + 1);
    bytes_ += b;
  }
  peak_bytes_ = std::max(peak_bytes_, bytes_);
  evictions_ += evicted;
  std::swap(cached_, next_);
  committed_ = true;
  return evicted;
}

PricingCache::PricingCache() = default;
PricingCache::~PricingCache() = default;

void PricingCache::Clear() {
  cached_.Clear();
  next_.Clear();
  mark_ = MappingState::Mark{};
  committed_ = false;
  bytes_ = 0;
}

/// Work counts of one priced merge, summed into the step-pricing counters.
struct PriceCounts {
  uint64_t priced = 0;    ///< dirty groups evaluated
  uint64_t reused = 0;    ///< dirty groups taken from the cache
  uint64_t refolded = 0;  ///< rows folded from the resumed fold states
};

/// \brief One step of dirty-group pricing over an aggregate expression
/// (EnumeratedDistance::ShapeMerges and FoldMerges). Prepare(), Shape() and
/// ShapeCarried() run on the calling thread; Fold() runs on exec workers.
/// The shape pass counts: it sizes a carried merge from its previous
/// step's size change, finds every other merge's dirty groups through the
/// occurrence index and sizes its fresh units with MovedSize. The fold
/// pass shapes the carried merges it folds the same way, then lowers: it
/// lowers the moved rows of the merges it folds, so a merge a bounded step
/// leaves unfolded is never lowered. A run's PricingCache keeps one
/// pricer, so the step arrays below keep their capacity from step to step.
class StepPricer {
 public:
  /// Lowers and evaluates `current` (= h(p₀) for `state`) under the step's
  /// chunks, keeping every row's lane mask, the fold checkpoints and every
  /// group's terms. False when a side is not a vector result or the
  /// VAL-FUNC has no per-group term; every merge then materializes.
  /// `current` must be h(p₀) for `state` (EnumeratedDistance::Distance's
  /// precondition), so the base layout remaps into its groups.
  bool Prepare(const EnumeratedDistance& oracle, PricingCache* cache,
               const ir::IrAggregateExpression& current,
               const MappingState& state, kernels::BatchProgram program);

  /// Shape pass over `merges`, which must outlive the step: sizes each
  /// carried merge from the previous step and fixes every other one's
  /// units, cache reuse, moved rows and candidate size, lowering nothing.
  /// Keeps each merge's size change for the next step and returns the
  /// number of merges sized from the previous step's.
  uint64_t Shape(const std::vector<MergeQuery>& merges);

  size_t num_merges() const { return merges_->size(); }
  /// Merge `i`'s candidate size.
  int64_t size(size_t i) const { return shapes_[i].size; }

  /// Shapes the carried merges of `which` as the shape pass shapes any
  /// other merge.
  void ShapeCarried(std::span<const uint32_t> which);

  /// Appends entries for merges `which` to the cache's next generation,
  /// sized from their shapes, and grows the generation's buffers to hold
  /// them; returns the index of the first.
  size_t LayOut(std::span<const uint32_t> which);

  /// Fold pass for merge `i`: lowers the rows its fresh units move, writes
  /// its units, sources and terms into entry `e` of the cache's next
  /// generation, laid out by LayOut, and its distance into `*distance`;
  /// returns true when its group remap is the identity.
  bool Fold(size_t i, size_t e, double* distance, PriceCounts* counts) const;

 private:
  template <typename T>
  using Buffer = PricingCache::Buffer<T>;

  /// Per-thread scratch of Shape() and Fold().
  struct Scratch {
    std::vector<uint32_t> moved;      // rows with a root in a factor
    std::vector<uint32_t> union_tmp;  // FindDirty's merge of root spans
    std::vector<uint32_t> dirty;      // dirty current slots, ascending
    std::vector<uint32_t> key_slots;  // slots whose key is a root
    std::vector<PricingCache::Source> sources;  // one merge's unit sources
    std::vector<int32_t> unit_of_slot;  // current slot -> unit, or -1
    std::vector<uint32_t> merged_rows;  // rows of the root-keyed groups
    std::vector<uint32_t> merged_sources;  // base slots of the merged group
    std::vector<uint64_t> t_masks;         // t's lane bytes per chunk
    ir::MovedRows lowered;
    // A unit's rows from its resumed fold state on: kept rows (source row
    // in `fold_src`) and lowered moved rows (kLowered), group slot 0.
    std::vector<kernels::AggBatchRow> fold_rows;
    std::vector<uint32_t> fold_src;
    std::vector<uint64_t> fold_masks;
    std::vector<int32_t> order;  // the candidate's groups, ascending
    double base_value[kLanes] = {};
    double base_count[kLanes] = {};
  };
  static constexpr uint32_t kLowered = UINT32_MAX;

  /// One unit of a merge as the shape pass fixed it. The units are one per
  /// dirty slot the merge keeps, ascending, then the merged group; unit u
  /// of the first kind has source u, the merged unit one source per key
  /// slot. Ranges index the step's shape buffers.
  struct ShapeUnit {
    int64_t size = 0;    // size of the group's rows after the merge
    int64_t reuse = -1;  // its terms in the cached generation, or -1
    uint32_t slot = 0;   // the current slot of a kept group
    // A fresh kept group's moved rows, ascending; the merged group moves
    // every row of the key slots.
    uint32_t moved_off = 0;
    uint32_t moved_end = 0;
  };
  /// One merge's ranges of the step's shape buffers. A carried merge has
  /// only its size until it is shaped.
  struct MergeShape {
    uint32_t units_off = 0;
    uint32_t num_units = 0;
    uint32_t keys_off = 0;
    uint32_t num_keys = 0;
    int64_t size = 0;
    bool identity = false;
    bool carried = false;

    uint32_t num_sources() const {
      return num_units - (num_keys > 0 ? 1 : 0) + num_keys;
    }
  };
  /// The calling thread's scratch.
  static Scratch& LocalScratch() {
    thread_local Scratch sc;
    return sc;
  }

  /// Fills sc.moved (the rows the merge moves), sc.key_slots (the slots
  /// keyed by a root) and sc.dirty (their union with the moved rows'
  /// slots), each ascending.
  void FindDirty(std::span<const AnnotationId> roots, Scratch* sc) const;

  /// Shapes merge `i`: its units, cache reuse, moved rows and candidate
  /// size.
  void ShapeMerge(size_t i, Scratch* sc);

  /// True when the last merge touched a root: it occurs in a changed row
  /// or keys the group of one.
  bool Touched(std::span<const AnnotationId> roots) const;

  /// Points `su` at the terms of the unit of `old` with the same kind and
  /// sources [src, src_end), if `old` has one.
  void FindReuse(const PricingCache::Entry* old, bool merged,
                 const PricingCache::Source* src,
                 const PricingCache::Source* src_end, ShapeUnit* su) const;

  /// Fills sc.merged_rows with every row of the slots [keys, keys_end).
  void MergedRows(const uint32_t* keys, const uint32_t* keys_end,
                  Scratch* sc) const;

  // The step's inputs, set by Prepare() and Shape().
  const EnumeratedDistance* oracle_ = nullptr;
  PricingCache* cache_ = nullptr;
  const ir::IrAggregateExpression* current_ = nullptr;
  const MappingState* state_ = nullptr;
  const std::vector<MergeQuery>* merges_ = nullptr;
  kernels::ValFuncBatchKind vf_ = kernels::ValFuncBatchKind::kL1;

  kernels::BatchProgram program_;
  size_t num_groups_ = 0;
  int64_t size_ = 0;
  kernels::GroupRemap remap_;  // base slots -> current slots
  std::vector<uint32_t> row_begin_;    // current slot -> first row
  std::vector<int64_t> group_size_;
  // The occurrence index: the annotations of the current rows, ascending,
  // and the rows occ_ann_[k] occurs in (monomial or guard body),
  // ascending: occ_rows_[occ_begin_[k] .. occ_begin_[k + 1]).
  std::vector<AnnotationId> occ_ann_;
  std::vector<uint32_t> occ_begin_;
  std::vector<uint32_t> occ_rows_;
  std::vector<std::pair<AnnotationId, uint32_t>> occurs_;  // Prepare's
  // Whether the step carries the last one, the slots of its changed rows
  // (Prepare's) and the annotations the last merge touched, ascending.
  bool carry_ = false;
  std::vector<uint32_t> changed_;
  std::vector<AnnotationId> touched_;
  // The groups' keys and versions, and each merge's size change, at this
  // step and at the last one.
  std::vector<AnnotationId> keys_;
  std::vector<AnnotationId> prev_keys_;
  std::vector<uint64_t> versions_;
  std::vector<uint64_t> prev_versions_;
  std::vector<int64_t> delta_;
  std::vector<int64_t> prev_delta_;
  // v^{h,φ} under the step's state, one block per grain-8 chunk.
  std::vector<kernels::ValuationBlock> blocks_;
  // Per chunk c: row i's lane mask at masks_[c · R + i], and the fold
  // state of row k · stride_'s group in front of that row at
  // checkpoints_[c · num_checkpoints_ + k].
  Buffer<uint64_t> masks_;
  size_t stride_ = 1;
  size_t num_checkpoints_ = 0;
  Buffer<kernels::AggAccumulator> checkpoints_;
  std::vector<kernels::AggAccumulator> acc_;  // one chunk's fold, per group
  // Chunk-major term arrays: chunk c's lanes start at c · kLanes · G in
  // the step arrays below and at c · kLanes within a cached unit.
  size_t total_lanes_ = 0;
  Buffer<double> proj_;      // base projected into current slots
  Buffer<double> terms_;     // terms against proj_
  Buffer<double> terms_id_;  // against the raw base (identity remap)
  // The shape pass's output: one shape per merge, and the units, key
  // slots and moved rows its ranges index. The fold pass appends the
  // carried merges it shapes.
  std::vector<MergeShape> shapes_;
  Buffer<ShapeUnit> shape_units_;
  Buffer<uint32_t> shape_keys_;
  Buffer<uint32_t> shape_moved_;
};

bool StepPricer::Prepare(const EnumeratedDistance& oracle,
                         PricingCache* cache,
                         const ir::IrAggregateExpression& current,
                         const MappingState& state,
                         kernels::BatchProgram program) {
  oracle_ = &oracle;
  cache_ = cache;
  current_ = &current;
  state_ = &state;
  vf_ = oracle.val_func_->batch_kind();
  program_ = std::move(program);
  if (program_.kind != EvalResult::Kind::kVector ||
      oracle_->base_kind_ != EvalResult::Kind::kVector ||
      (vf_ != kernels::ValFuncBatchKind::kL1 &&
       vf_ != kernels::ValFuncBatchKind::kL2 &&
       vf_ != kernels::ValFuncBatchKind::kDisagreement)) {
    return false;
  }
  const size_t G = program_.num_groups;
  const AnnotationId* groups = program_.groups;
  const std::vector<kernels::AggBatchRow>& rows = program_.agg_rows;
  const size_t R = rows.size();
  num_groups_ = G;

  // Base slot -> current slot through the cumulative h, and each current
  // slot's ascending preimage.
  [[maybe_unused]] const bool remapped = kernels::BuildGroupRemap(
      oracle_->base_kind_, oracle_->base_groups_.data(),
      oracle_->base_groups_.size(), program_, state_->cumulative(), &remap_);
  assert(remapped);

  // Rows are group-sorted: per-slot row ranges, sizes and the rows each
  // annotation occurs in.
  row_begin_.assign(G + 1, 0);
  group_size_.assign(G, 0);
  occurs_.clear();
  for (uint32_t i = 0; i < R; ++i) {
    const kernels::AggBatchRow& r = rows[i];
    ++row_begin_[r.group + 1];
    group_size_[r.group] += r.mono.len + r.guard_mono.len;
    for (uint32_t k = 0; k < r.mono.len; ++k) {
      occurs_.emplace_back(r.mono.data[k], i);
    }
    for (uint32_t k = 0; k < r.guard_mono.len; ++k) {
      occurs_.emplace_back(r.guard_mono.data[k], i);
    }
  }
  for (size_t g = 0; g < G; ++g) row_begin_[g + 1] += row_begin_[g];
  // A row is indexed once per annotation however often it occurs in it (a
  // factor can repeat, or sit in both the monomial and the guard).
  std::sort(occurs_.begin(), occurs_.end());
  occurs_.erase(std::unique(occurs_.begin(), occurs_.end()), occurs_.end());
  occ_ann_.clear();
  occ_begin_.clear();
  occ_rows_.resize(occurs_.size());
  for (size_t k = 0; k < occurs_.size(); ++k) {
    if (occ_ann_.empty() || occ_ann_.back() != occurs_[k].first) {
      occ_ann_.push_back(occurs_[k].first);
      occ_begin_.push_back(static_cast<uint32_t>(k));
    }
    occ_rows_[k] = occurs_[k].second;
  }
  occ_begin_.push_back(static_cast<uint32_t>(occurs_.size()));
  size_ = current_->Size();

  // Group versions (PricingCache). The candidates' projection changes form
  // (raw base vs folded base) when the remap's identity does, so no cached
  // term carries over it; sizes and versions still do.
  if (cache_->identity_on_groups_ != remap_.identity()) {
    cache_->cached_.Clear();
    cache_->identity_on_groups_ = remap_.identity();
  }
  carry_ = cache_->committed_ && state.OneMergePast(cache_->mark_);
  cache_->mark_ = state.mark();
  cache_->committed_ = false;
  std::swap(keys_, prev_keys_);
  std::swap(versions_, prev_versions_);
  std::swap(delta_, prev_delta_);
  keys_.assign(groups, groups + G);
  versions_.resize(G);
  changed_.clear();
  touched_.clear();
  if (carry_) {
    // The changed rows: the rows s occurs in, and the rows of s's group.
    // Their slots, and the annotations they touch, ascending.
    const AnnotationId s = state.last_merge().summary;
    auto touch = [&](uint32_t i) {
      const kernels::AggBatchRow& r = rows[i];
      touched_.insert(touched_.end(), r.mono.data, r.mono.data + r.mono.len);
      touched_.insert(touched_.end(), r.guard_mono.data,
                      r.guard_mono.data + r.guard_mono.len);
      touched_.push_back(groups[r.group]);
      changed_.push_back(r.group);
    };
    const auto ann = std::lower_bound(occ_ann_.begin(), occ_ann_.end(), s);
    if (ann != occ_ann_.end() && *ann == s) {
      const size_t a = static_cast<size_t>(ann - occ_ann_.begin());
      for (uint32_t k = occ_begin_[a]; k < occ_begin_[a + 1]; ++k) {
        touch(occ_rows_[k]);
      }
    }
    const AnnotationId* key = std::lower_bound(groups, groups + G, s);
    if (key != groups + G && *key == s) {
      const size_t g = static_cast<size_t>(key - groups);
      for (uint32_t i = row_begin_[g]; i < row_begin_[g + 1]; ++i) touch(i);
    }
    std::sort(changed_.begin(), changed_.end());
    changed_.erase(std::unique(changed_.begin(), changed_.end()),
                   changed_.end());
    std::sort(touched_.begin(), touched_.end());
    touched_.erase(std::unique(touched_.begin(), touched_.end()),
                   touched_.end());
    // Bump exactly the groups with a changed row and the new keys.
    size_t j = 0;
    auto changed = changed_.begin();
    for (size_t g = 0; g < G; ++g) {
      while (j < prev_keys_.size() && prev_keys_[j] < groups[g]) ++j;
      while (changed != changed_.end() && *changed < g) ++changed;
      const bool kept = j < prev_keys_.size() && prev_keys_[j] == groups[g] &&
                        (changed == changed_.end() || *changed != g);
      versions_[g] = kept ? prev_versions_[j] : ++cache_->next_version_;
    }
  } else {
    for (size_t g = 0; g < G; ++g) versions_[g] = ++cache_->next_version_;
  }

  // The current state's masks, fold checkpoints, values and terms, per
  // chunk: the fold EvaluateBlock performs, paused at every checkpoint.
  const std::vector<kernels::BlockEval>& base = oracle_->base_blocks_;
  const size_t C = base.size();
  const size_t state_bytes = R * C * sizeof(kernels::AggAccumulator);
  stride_ = std::max<size_t>(
      1, (state_bytes + EnumeratedDistance::kMaxCheckpointBytes - 1) /
             EnumeratedDistance::kMaxCheckpointBytes);
  num_checkpoints_ = (R + stride_ - 1) / stride_;
  blocks_.resize(C);
  masks_.resize(C * R);
  checkpoints_.resize(C * num_checkpoints_);
  total_lanes_ = C * kLanes;
  proj_.resize(total_lanes_ * G);
  terms_.resize(total_lanes_ * G);
  terms_id_.resize(remap_.identity() ? total_lanes_ * G : 0);
  double counts[kLanes] = {};
  double cv[kLanes];
  for (size_t c = 0; c < C; ++c) {
    oracle_->TransformChunk(*state_, c, &blocks_[c]);
    uint64_t* masks = masks_.data() + c * R;
    for (size_t i = 0; i < R; ++i) {
      masks[i] = kernels::AggRowMask(blocks_[c], rows[i]);
    }
    acc_.assign(G, kernels::AggAccumulator{});
    for (size_t k = 0; k < num_checkpoints_; ++k) {
      const size_t i = k * stride_;
      checkpoints_[c * num_checkpoints_ + k] = acc_[rows[i].group];
      kernels::FoldAggRows(program_.fold, rows.data() + i, masks + i,
                           std::min(stride_, R - i), acc_.data());
    }
    for (size_t g = 0; g < G; ++g) {
      const size_t off = (c * G + g) * kLanes;
      kernels::FoldBaseSlots(program_.agg, base[c],
                             remap_.src.data() + remap_.src_off[g],
                             remap_.src_off[g + 1] - remap_.src_off[g],
                             proj_.data() + off, counts);
      kernels::FinishAgg(program_.agg, acc_[g], cv);
      for (size_t l = 0; l < kLanes; ++l) {
        terms_[off + l] = GroupTerm(vf_, proj_[off + l], cv[l]);
      }
      if (remap_.identity()) {
        const double* bv = base[c].values.data() + g * kLanes;
        for (size_t l = 0; l < kLanes; ++l) {
          terms_id_[off + l] = GroupTerm(vf_, bv[l], cv[l]);
        }
      }
    }
  }
  return true;
}

void StepPricer::FindDirty(std::span<const AnnotationId> roots,
                           Scratch* sc) const {
  // The rows the merge moves: every row with a root in its monomial or
  // guard body, the union of the roots' occurrence spans. Their groups and
  // the groups keyed by a root are the dirty slots; roots that are group
  // keys fold their groups into t's.
  const AnnotationId* groups = program_.groups;
  const size_t G = num_groups_;
  sc->moved.clear();
  sc->key_slots.clear();
  auto ann = occ_ann_.begin();
  for (AnnotationId r : roots) {
    // Roots are sorted, so each search starts where the last ended.
    ann = std::lower_bound(ann, occ_ann_.end(), r);
    if (ann != occ_ann_.end() && *ann == r) {
      const size_t a = static_cast<size_t>(ann - occ_ann_.begin());
      const uint32_t* occ = occ_rows_.data() + occ_begin_[a];
      const uint32_t* occ_end = occ_rows_.data() + occ_begin_[a + 1];
      if (sc->moved.empty()) {
        sc->moved.assign(occ, occ_end);
      } else {
        sc->union_tmp.resize(sc->moved.size() + (occ_end - occ));
        sc->union_tmp.erase(
            std::set_union(sc->moved.begin(), sc->moved.end(), occ, occ_end,
                           sc->union_tmp.begin()),
            sc->union_tmp.end());
        std::swap(sc->moved, sc->union_tmp);
      }
    }
    // The key slots come out ascending too.
    const AnnotationId* k = std::lower_bound(groups, groups + G, r);
    if (k != groups + G && *k == r) {
      sc->key_slots.push_back(static_cast<uint32_t>(k - groups));
    }
  }
  // Rows are group-sorted, so the moved rows' slots come out ascending;
  // the key slots merge in, a slot that is both kept once.
  sc->dirty.clear();
  auto push = [sc](uint32_t g) {
    if (sc->dirty.empty() || sc->dirty.back() != g) sc->dirty.push_back(g);
  };
  auto key = sc->key_slots.begin();
  for (uint32_t i : sc->moved) {
    const uint32_t g = program_.agg_rows[i].group;
    while (key != sc->key_slots.end() && *key < g) push(*key++);
    push(g);
  }
  while (key != sc->key_slots.end()) push(*key++);
}

bool StepPricer::Touched(std::span<const AnnotationId> roots) const {
  return std::any_of(roots.begin(), roots.end(), [&](AnnotationId r) {
    return std::binary_search(touched_.begin(), touched_.end(), r);
  });
}

void StepPricer::ShapeCarried(std::span<const uint32_t> which) {
  Scratch& sc = LocalScratch();
  for (uint32_t i : which) {
    if (!shapes_[i].carried) continue;
    [[maybe_unused]] const int64_t carried = shapes_[i].size;
    ShapeMerge(i, &sc);
    // A merge the last merge did not touch changes the size as it did at
    // the previous step.
    assert(shapes_[i].size == carried);
  }
}

void StepPricer::FindReuse(const PricingCache::Entry* old, bool merged,
                           const PricingCache::Source* src,
                           const PricingCache::Source* src_end,
                           ShapeUnit* su) const {
  if (old == nullptr) return;
  // Reuse the terms of a unit whose source groups are unchanged since the
  // step that computed them.
  const PricingCache::Generation& prev = cache_->cached_;
  const PricingCache::Unit* old_units = prev.units.data() + old->units_off;
  const PricingCache::Source* old_sources = prev.sources.data() + old->src_off;
  for (size_t k = 0; k < old->num_units; ++k) {
    const PricingCache::Unit& o = old_units[k];
    if (o.merged == merged &&
        std::equal(old_sources + o.src_begin, old_sources + o.src_end, src,
                   src_end)) {
      su->reuse = static_cast<int64_t>(old->terms_off + o.terms_off);
      su->size = o.size;
      return;
    }
  }
}

void StepPricer::MergedRows(const uint32_t* keys, const uint32_t* keys_end,
                            Scratch* sc) const {
  sc->merged_rows.clear();
  for (const uint32_t* g = keys; g != keys_end; ++g) {
    for (uint32_t r = row_begin_[*g]; r < row_begin_[*g + 1]; ++r) {
      sc->merged_rows.push_back(r);
    }
  }
}

uint64_t StepPricer::Shape(const std::vector<MergeQuery>& merges) {
  Scratch& sc = LocalScratch();
  merges_ = &merges;
  shapes_.resize(merges.size());
  shape_units_.clear();
  shape_keys_.clear();
  shape_moved_.clear();
  delta_.resize(merges.size());
  uint64_t carried = 0;
  for (size_t i = 0; i < merges.size(); ++i) {
    const MergeQuery& m = merges[i];
    if (carry_ && m.prev >= 0 && !Touched(m.roots)) {
      // The size change of a merge depends only on the rows its roots
      // occur in and on the groups they key, which the last merge left as
      // they were (docs/KERNELS.md, *Carried steps*).
      assert(static_cast<size_t>(m.prev) < prev_delta_.size());
      shapes_[i].size = size_ + prev_delta_[m.prev];
      shapes_[i].carried = true;
      ++carried;
    } else {
      ShapeMerge(i, &sc);
    }
    delta_[i] = shapes_[i].size - size_;
  }
  return carried;
}

void StepPricer::ShapeMerge(size_t i, Scratch* sc_ptr) {
  Scratch& sc = *sc_ptr;
  const AnnotationId* groups = program_.groups;
  const std::vector<kernels::AggBatchRow>& rows = program_.agg_rows;
  const MergeQuery& m = (*merges_)[i];
  FindDirty(m.roots, &sc);
  MergeShape& shape = shapes_[i];
  shape.carried = false;
  shape.units_off = static_cast<uint32_t>(shape_units_.size());
  shape.keys_off = static_cast<uint32_t>(shape_keys_.size());
  shape.num_keys = static_cast<uint32_t>(sc.key_slots.size());
  shape.identity = remap_.identity() && sc.key_slots.empty();
  shape_keys_.insert(shape_keys_.end(), sc.key_slots.begin(),
                     sc.key_slots.end());
  const PricingCache::Entry* old =
      carry_ ? cache_->cached_.Find(m.prev) : nullptr;
  sc.sources.clear();

  // Units: one per dirty slot the merge keeps, then the merged group.
  // Size: the dirty groups' rows are replaced by the units' rows.
  int64_t size = size_;
  for (uint32_t g : sc.dirty) size -= group_size_[g];
  auto moved = sc.moved.begin();
  for (uint32_t g : sc.dirty) {
    if (std::binary_search(sc.key_slots.begin(), sc.key_slots.end(), g)) {
      continue;
    }
    ShapeUnit& su = shape_units_.emplace_back();
    su.slot = g;
    sc.sources.push_back({groups[g], versions_[g]});
    FindReuse(old, false, &sc.sources.back(), &sc.sources.back() + 1, &su);
    // The group's moved rows: a kept slot is dirty because a root occurs
    // in one of its rows, so there is at least one.
    moved = std::lower_bound(moved, sc.moved.end(), row_begin_[g]);
    const auto moved_end =
        std::lower_bound(moved, sc.moved.end(), row_begin_[g + 1]);
    if (su.reuse < 0) {
      // The moved rows' old size gives way to what they lower to.
      su.size = group_size_[g] +
                current_->MovedSize(&*moved,
                                    static_cast<size_t>(moved_end - moved),
                                    m.roots.data(), m.roots.size());
      for (auto r = moved; r != moved_end; ++r) {
        su.size -= rows[*r].mono.len + rows[*r].guard_mono.len;
      }
      su.moved_off = static_cast<uint32_t>(shape_moved_.size());
      shape_moved_.insert(shape_moved_.end(), moved, moved_end);
      su.moved_end = static_cast<uint32_t>(shape_moved_.size());
    }
    moved = moved_end;
    size += su.size;
  }
  if (!sc.key_slots.empty()) {
    ShapeUnit& su = shape_units_.emplace_back();
    const size_t src_begin = sc.sources.size();
    for (uint32_t g : sc.key_slots) {
      sc.sources.push_back({groups[g], versions_[g]});
    }
    FindReuse(old, true, sc.sources.data() + src_begin,
              sc.sources.data() + sc.sources.size(), &su);
    if (su.reuse < 0) {
      // Every row of the root-keyed groups moves into t's group.
      MergedRows(sc.key_slots.data(),
                 sc.key_slots.data() + sc.key_slots.size(), &sc);
      su.size = current_->MovedSize(sc.merged_rows.data(),
                                    sc.merged_rows.size(), m.roots.data(),
                                    m.roots.size());
    }
    size += su.size;
  }
  shape.num_units =
      static_cast<uint32_t>(shape_units_.size() - shape.units_off);
  shape.size = size;
}

size_t StepPricer::LayOut(std::span<const uint32_t> which) {
  // Each entry's ranges follow the ones already laid out this step.
  PricingCache::Generation& gen = cache_->next_;
  cache_->lanes_ = total_lanes_;
  const size_t first = gen.entries.size();
  size_t units = gen.units.size();
  size_t sources = gen.sources.size();
  for (uint32_t i : which) {
    PricingCache::Entry& e = gen.entries.emplace_back();
    e.merge = i;
    e.units_off = static_cast<uint32_t>(units);
    e.num_units = shapes_[i].num_units;
    e.src_off = static_cast<uint32_t>(sources);
    e.num_sources = shapes_[i].num_sources();
    e.terms_off = units * total_lanes_;
    units += e.num_units;
    sources += e.num_sources;
  }
  GrowExactly(&gen.units, units);
  GrowExactly(&gen.sources, sources);
  GrowExactly(&gen.terms, units * total_lanes_);
  return first;
}

bool StepPricer::Fold(size_t i, size_t e, double* distance,
                      PriceCounts* counts) const {
  Scratch& sc = LocalScratch();
  const MergeShape& shape = shapes_[i];
  const MergeQuery& m = (*merges_)[i];
  const std::span<const AnnotationId> roots = m.roots;
  const AnnotationId t = m.scratch;
  const size_t G = num_groups_;
  const AnnotationId* groups = program_.groups;
  const std::vector<kernels::AggBatchRow>& rows = program_.agg_rows;
  const size_t R = rows.size();
  const std::vector<kernels::BlockEval>& base = oracle_->base_blocks_;
  const ShapeUnit* const shape_units = shape_units_.data() + shape.units_off;
  const uint32_t* const key_slots = shape_keys_.data() + shape.keys_off;
  const uint32_t* const key_end = key_slots + shape.num_keys;
  const size_t num_units = shape.num_units;
  const int32_t merged_unit =
      shape.num_keys == 0 ? -1 : static_cast<int32_t>(num_units - 1);

  // The entry's ranges of the next generation, laid out by LayOut: each
  // kept group's unit with its one source, then the merged group's unit
  // with one source per key slot.
  PricingCache::Generation& gen = cache_->next_;
  const PricingCache::Entry& entry = gen.entries[e];
  PricingCache::Unit* const units = gen.units.data() + entry.units_off;
  PricingCache::Source* const sources = gen.sources.data() + entry.src_off;
  double* const terms = gen.terms.data() + entry.terms_off;

  sc.unit_of_slot.assign(G, -1);
  sc.t_masks.clear();
  for (size_t u = 0; u < num_units; ++u) {
    const ShapeUnit& su = shape_units[u];
    const bool merged = static_cast<int32_t>(u) == merged_unit;
    PricingCache::Unit& unit = units[u];
    unit.merged = merged;
    unit.src_begin = static_cast<uint32_t>(u);
    unit.size = su.size;
    unit.terms_off = static_cast<uint32_t>(u * total_lanes_);
    if (merged) {
      for (const uint32_t* g = key_slots; g != key_end; ++g) {
        sources[u + (g - key_slots)] = {groups[*g], versions_[*g]};
      }
      unit.src_end = static_cast<uint32_t>(u + shape.num_keys);
    } else {
      sources[u] = {groups[su.slot], versions_[su.slot]};
      unit.src_end = static_cast<uint32_t>(u + 1);
      sc.unit_of_slot[su.slot] = static_cast<int32_t>(u);
    }
    if (su.reuse >= 0) {
      std::copy_n(cache_->cached_.terms.data() + su.reuse, total_lanes_,
                  terms + unit.terms_off);
      ++counts->reused;
      continue;
    }
    if (sc.t_masks.empty()) {
      // t's truth on each lane is φ of the roots' (its members are the
      // union of theirs).
      const PhiKind phi = state_->PhiFor(oracle_->registry_->domain(t));
      for (size_t c = 0; c < base.size(); ++c) {
        uint64_t mask = phi == PhiKind::kOr ? 0 : ~uint64_t{0};
        for (AnnotationId r : roots) {
          uint64_t row;
          std::memcpy(&row, blocks_[c].Row(r), sizeof(row));
          mask = phi == PhiKind::kOr ? (mask | row) : (mask & row);
        }
        sc.t_masks.push_back(mask);
      }
    }

    // Lower the rows the unit moves. A kept group's fold resumes at the
    // last checkpoint in front of its first changed row (its first moved
    // row, or where its first lowered row goes in) when that checkpoint is
    // in the group, else at the group's first row from a zero state; t's
    // merged group has no kept rows and folds from a zero state.
    const uint32_t* mv = shape_moved_.data() + su.moved_off;
    const uint32_t* const mv_end = shape_moved_.data() + su.moved_end;
    uint32_t start = 0;
    uint32_t end = 0;
    int32_t checkpoint = -1;
    if (merged) {
      MergedRows(key_slots, key_end, &sc);
      current_->LowerMoved(sc.merged_rows.data(), sc.merged_rows.size(),
                           roots.data(), roots.size(), t, 0, 0, &sc.lowered);
    } else {
      start = row_begin_[su.slot];
      end = row_begin_[su.slot + 1];
      current_->LowerMoved(mv, static_cast<size_t>(mv_end - mv), roots.data(),
                           roots.size(), t, start, end, &sc.lowered);
      const size_t k = std::min(*mv, sc.lowered.before[0]) / stride_;
      if (k * stride_ >= start) {
        checkpoint = static_cast<int32_t>(k);
        start = static_cast<uint32_t>(k * stride_);
      }
    }
    assert(su.size == LoweredUnitSize(sc.lowered, rows, mv, mv_end,
                                      merged ? 0 : group_size_[su.slot]));

    // Splice the lowered rows among the kept rows from the resumed fold
    // state on.
    const std::vector<kernels::AggBatchRow>& lowered = sc.lowered.rows;
    const std::vector<uint32_t>& before = sc.lowered.before;
    sc.fold_rows.clear();
    sc.fold_src.clear();
    size_t j = 0;
    auto push_lowered_until = [&](uint32_t r) {
      for (; j < lowered.size() && before[j] <= r; ++j) {
        sc.fold_rows.push_back(lowered[j]);
        sc.fold_src.push_back(kLowered);
      }
    };
    for (uint32_t r = start; r < end; ++r) {
      push_lowered_until(r);
      if (mv != mv_end && *mv == r) {
        ++mv;
        continue;
      }
      sc.fold_rows.push_back(rows[r]);
      sc.fold_rows.back().group = 0;
      sc.fold_src.push_back(r);
    }
    push_lowered_until(UINT32_MAX);

    // The merged group's base preimage: base slots whose current image is
    // a root key, ascending.
    if (merged) {
      sc.merged_sources.clear();
      for (size_t b = 0; b < remap_.slot.size(); ++b) {
        if (std::binary_search(key_slots, key_end, remap_.slot[b])) {
          sc.merged_sources.push_back(static_cast<uint32_t>(b));
        }
      }
    }
    const size_t n = sc.fold_rows.size();
    sc.fold_masks.resize(n);
    for (size_t c = 0; c < base.size(); ++c) {
      // Kept rows keep the step's liveness; lowered rows read t's φ bytes.
      const uint64_t* step_masks = masks_.data() + c * R;
      for (size_t f = 0; f < n; ++f) {
        sc.fold_masks[f] = sc.fold_src[f] != kLowered
                               ? step_masks[sc.fold_src[f]]
                               : kernels::AggRowMask(blocks_[c],
                                                     sc.fold_rows[f], t,
                                                     sc.t_masks[c]);
      }
      kernels::AggAccumulator acc =
          checkpoint >= 0
              ? checkpoints_[c * num_checkpoints_ +
                             static_cast<size_t>(checkpoint)]
              : kernels::AggAccumulator{};
      kernels::FoldAggRows(program_.fold, sc.fold_rows.data(),
                           sc.fold_masks.data(), n, &acc);
      double cv[kLanes];
      kernels::FinishAgg(program_.agg, acc, cv);
      const double* bv;
      if (merged) {
        kernels::FoldBaseSlots(program_.agg, base[c],
                               sc.merged_sources.data(),
                               sc.merged_sources.size(), sc.base_value,
                               sc.base_count);
        bv = sc.base_value;
      } else {
        bv = shape.identity ? base[c].values.data() + su.slot * kLanes
                            : proj_.data() + (c * G + su.slot) * kLanes;
      }
      double* out = terms + unit.terms_off + c * kLanes;
      for (size_t l = 0; l < kLanes; ++l) {
        out[l] = GroupTerm(vf_, bv[l], cv[l]);
      }
    }
    ++counts->priced;
    counts->refolded += n;
  }

  // The candidate's groups in ascending order: the current keys the merge
  // keeps, with t's merged group in place. Each is a step group g (>= 0)
  // or a unit u (~u).
  sc.order.clear();
  bool merged_placed = merged_unit < 0;
  for (size_t g = 0; g < G; ++g) {
    if (!merged_placed && t < groups[g]) {
      sc.order.push_back(~merged_unit);
      merged_placed = true;
    }
    if (std::binary_search(key_slots, key_end, static_cast<uint32_t>(g))) {
      continue;
    }
    const int32_t u = sc.unit_of_slot[g];
    sc.order.push_back(u < 0 ? static_cast<int32_t>(g) : ~u);
  }
  if (!merged_placed) sc.order.push_back(~merged_unit);

  // Fold the per-group terms in that order, every lane at once.
  double total = 0.0;
  for (size_t c = 0; c < base.size(); ++c) {
    const size_t lane_off = c * kLanes;
    const double* step_terms =
        (shape.identity ? terms_id_.data() : terms_.data()) + lane_off * G;
    const double* unit_terms = terms + lane_off;
    double err[kLanes] = {};
    for (int32_t o : sc.order) {
      const double* tj = o >= 0 ? step_terms + o * kLanes
                                : unit_terms + units[~o].terms_off;
      if (vf_ == kernels::ValFuncBatchKind::kDisagreement) {
        for (size_t l = 0; l < kLanes; ++l) {
          err[l] = err[l] != 0.0 || tj[l] != 0.0 ? 1.0 : 0.0;
        }
      } else {
        for (size_t l = 0; l < kLanes; ++l) err[l] += tj[l];
      }
    }
    double partial = 0.0;
    for (size_t l = 0; l < blocks_[c].width(); ++l) {
      const double e =
          vf_ == kernels::ValFuncBatchKind::kL2 ? std::sqrt(err[l]) : err[l];
      partial += oracle_->valuations_[lane_off + l].weight() * e;
    }
    total += partial;
  }
  *distance = (total / oracle_->total_weight_) / oracle_->max_error_;
  return shape.identity;
}

bool EnumeratedDistance::ShapeMerges(const ProvenanceExpression& current,
                                     const MappingState& state,
                                     const std::vector<MergeQuery>& merges,
                                     PricingCache* cache,
                                     std::vector<MergePrice>* out) {
  out->assign(merges.size(), MergePrice{});
  const ir::IrAggregateExpression* agg = current.AsAggregate();
  if (agg == nullptr || valuations_.empty()) {
    cache->Clear();
    return false;
  }
  if (cache->pricer_ == nullptr) {
    cache->pricer_ = std::make_unique<StepPricer>();
  }
  StepPricer& pricer = *cache->pricer_;
  if (!pricer.Prepare(*this, cache, *agg, state, agg->LowerBatch())) {
    cache->Clear();
    return false;
  }
  // Shape every merge; the fold pass lays out the entries it writes.
  cache->next_.Clear();
  DistanceMetrics::Get().merges_carried->Increment(pricer.Shape(merges));
  for (size_t i = 0; i < merges.size(); ++i) (*out)[i].size = pricer.size(i);
  return true;
}

void EnumeratedDistance::FoldMerges(std::span<const uint32_t> which,
                                    exec::ThreadPool* pool,
                                    PricingCache* cache,
                                    std::vector<MergePrice>* out) {
  StepPricer& pricer = *cache->pricer_;
  // The carried merges it folds are shaped first, as the shape pass
  // shapes the others.
  pricer.ShapeCarried(which);
  const size_t first = pricer.LayOut(which);
  std::atomic<uint64_t> priced{0};
  std::atomic<uint64_t> reused{0};
  std::atomic<uint64_t> refolded{0};
  exec::ParallelFor(
      pool, 0, static_cast<int64_t>(which.size()), 1, [&](int64_t idx) {
        const size_t k = static_cast<size_t>(idx);
        const size_t i = which[k];
        PriceCounts counts;
        CountPricedMerge(
            pricer.Fold(i, first + k, &(*out)[i].distance, &counts));
        priced.fetch_add(counts.priced, std::memory_order_relaxed);
        reused.fetch_add(counts.reused, std::memory_order_relaxed);
        refolded.fetch_add(counts.refolded, std::memory_order_relaxed);
      });
  const DistanceMetrics& metrics = DistanceMetrics::Get();
  metrics.groups_priced->Increment(priced.load());
  metrics.groups_reused->Increment(reused.load());
  metrics.rows_refolded->Increment(refolded.load());
}

void EnumeratedDistance::CommitStep(PricingCache* cache) {
  DistanceMetrics::Get().cache_evictions->Increment(
      cache->Commit(cache->pricer_->num_merges()));
}

void EnumeratedDistance::MaterializeMerges(
    const ProvenanceExpression& current, const MappingState& state,
    const std::vector<MergeQuery>& merges, exec::ThreadPool* pool,
    std::vector<MergePrice>* out) {
  out->assign(merges.size(), MergePrice{});
  exec::ParallelFor(
      pool, 0, static_cast<int64_t>(merges.size()), 1, [&](int64_t idx) {
        const size_t i = static_cast<size_t>(idx);
        const MergeQuery& m = merges[i];
        MappingState tentative = state;
        tentative.Merge(
            std::vector<AnnotationId>(m.roots.begin(), m.roots.end()),
            m.scratch);
        Homomorphism h;
        for (AnnotationId root : m.roots) h.Set(root, m.scratch);
        const std::unique_ptr<ProvenanceExpression> cand = current.Apply(h);
        (*out)[i].distance = Distance(*cand, tentative);
        (*out)[i].size = cand->Size();
      });
}

EnumeratedDistance::EnumeratedDistance(const ProvenanceExpression* p0,
                                       const AnnotationRegistry* registry,
                                       const ValFunc* val_func,
                                       std::vector<Valuation> valuations)
    : p0_(p0),
      registry_(registry),
      val_func_(val_func),
      valuations_(std::move(valuations)) {
  const size_t n = registry_->size();
  for (const auto& v : valuations_) total_weight_ += v.weight();
  EvalResult all_true = p0_->Evaluate(MaterializedValuation(n));
  max_error_ = val_func_->MaxError(all_true);
  if (max_error_ <= 0.0) max_error_ = 1.0;

  // v(p₀) per valuation, packed chunk by chunk into the batch kernels'
  // blocks. Every evaluation comes from p₀'s Evaluate, which emits every
  // group, so all share the first one's layout and every chunk packs.
  const size_t num_chunks =
      (valuations_.size() + kReductionGrain - 1) / kReductionGrain;
  base_blocks_.resize(num_chunks);
  std::vector<EvalResult> evals;
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t lo = c * kReductionGrain;
    const size_t w =
        std::min(valuations_.size() - lo, size_t{kReductionGrain});
    evals.clear();
    for (size_t l = 0; l < w; ++l) {
      evals.push_back(
          p0_->Evaluate(MaterializedValuation(valuations_[lo + l], n)));
    }
    if (c == 0) {
      base_kind_ = evals[0].kind();
      if (base_kind_ == EvalResult::Kind::kVector) {
        for (const auto& coord : evals[0].coords()) {
          base_groups_.push_back(coord.group);
        }
      }
    }
    [[maybe_unused]] const bool packed = kernels::PackEvalBlock(
        evals.data(), w, base_kind_, base_groups_.data(), base_groups_.size(),
        &base_blocks_[c]);
    assert(packed);
  }
}

double EnumeratedDistance::Distance(const ProvenanceExpression& cand,
                                    const MappingState& state) {
  const DistanceMetrics& metrics = DistanceMetrics::Get();
  metrics.enumerated_calls->Increment();
  if (valuations_.empty()) return 0.0;
  // On the parallel candidate-scoring path this oracle runs on pool worker
  // threads; per-call spans would interleave in the ring sink with broken
  // parent links, so the per-step aggregate span in Summarizer::Run stands
  // in for them. The serial path records exactly the spans it always did.
  std::optional<obs::TraceSpan> oracle_span;
  if (!exec::InParallelWorker()) oracle_span.emplace("distance.oracle");
  metrics.enumerated_evals->Increment(valuations_.size());
  // The candidate lowers once into a flat program and each grain-8 chunk
  // is evaluated in one pass over the program rows by the SIMD kernels.
  // When the cumulative homomorphism leaves every group key untouched (the
  // common case — most merges group non-key annotations like users), the
  // remap is the identity and the packed base blocks feed VAL-FUNC
  // directly; when a merge touched a group key, they are projected into
  // the candidate's group slots through the remap table
  // (kernels::ProjectBlock). Chunk boundaries, per-lane arithmetic and the
  // weighted fold order all replicate the per-valuation definition, so the
  // distance is bit-identical to it (docs/KERNELS.md).
  const kernels::BatchProgram program = cand.AsBatchEval()->LowerBatch();
  kernels::GroupRemap remap;
  [[maybe_unused]] const bool remapped =
      kernels::BuildGroupRemap(base_kind_, base_groups_.data(),
                               base_groups_.size(), program,
                               state.cumulative(), &remap);
  assert(remapped);
  if (remap.identity()) {
    metrics.base_eval_reuse->Increment(valuations_.size());
  }
  kernels::CountBatchEvals(valuations_.size());
  const kernels::ValFuncBatchKind vf_kind = val_func_->batch_kind();
  const double penalty = val_func_->batch_mismatch_penalty();
  thread_local kernels::ValuationBlock block;
  thread_local kernels::BlockEval cand_eval;
  thread_local kernels::BlockEval projected;
  double total = 0.0;
  for (size_t c = 0; c < base_blocks_.size(); ++c) {
    TransformChunk(state, c, &block);
    kernels::EvaluateBlock(program, block, &cand_eval);
    const kernels::BlockEval& orig =
        kernels::ProjectBlock(remap, program, base_blocks_[c], &projected);
    double err[kLanes];
    kernels::ValFuncBlockErrors(vf_kind, penalty, orig, cand_eval, err);
    double partial = 0.0;
    for (size_t l = 0; l < block.width(); ++l) {
      partial += valuations_[c * kLanes + l].weight() * err[l];
    }
    total += partial;
  }
  return (total / total_weight_) / max_error_;
}

void EnumeratedDistance::TransformChunk(
    const MappingState& state, size_t c,
    kernels::ValuationBlock* block) const {
  const size_t lo = c * kReductionGrain;
  const size_t w = std::min(valuations_.size() - lo, size_t{kReductionGrain});
  block->Reset(registry_->size(), w);
  for (size_t l = 0; l < w; ++l) {
    state.TransformLane(valuations_[lo + l], l, block);
  }
}

void EnumeratedDistance::CountPricedMerge(bool identity) const {
  const DistanceMetrics& metrics = DistanceMetrics::Get();
  metrics.enumerated_calls->Increment();
  metrics.enumerated_evals->Increment(valuations_.size());
  kernels::CountBatchEvals(valuations_.size());
  if (identity) metrics.base_eval_reuse->Increment(valuations_.size());
}

}  // namespace prox
