#include "summarize/distance.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstring>
#include <optional>
#include <utility>

#include "common/timer.h"
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

/// True when the cumulative homomorphism fixes every group key of the
/// reference evaluation, making ProjectEvalResult the identity (scalar and
/// cost/bool results have no group keys, so they always qualify).
bool IdentityOnGroups(const EvalResult& reference, const MappingState& state) {
  if (reference.kind() != EvalResult::Kind::kVector) return true;
  for (const auto& coord : reference.coords()) {
    if (state.cumulative().Map(coord.group) != coord.group) return false;
  }
  return true;
}

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

/// Row content of one group, for the cross-step version check: everything
/// lowering and evaluation read from a row.
void GroupContent(const ir::IrAggregateExpression& expr, size_t begin,
                  size_t end, std::vector<uint64_t>* out) {
  auto bits = [](double x) {
    uint64_t u;
    std::memcpy(&u, &x, sizeof(u));
    return u;
  };
  out->clear();
  for (size_t i = begin; i < end; ++i) {
    const ir::AggTermView t = expr.term(i);
    out->push_back(t.mono_len);
    out->insert(out->end(), t.mono, t.mono + t.mono_len);
    out->push_back(bits(t.value.value));
    out->push_back(bits(t.value.count));
    out->push_back(t.has_guard);
    if (t.has_guard) {
      out->push_back(t.guard_len);
      out->insert(out->end(), t.guard_mono, t.guard_mono + t.guard_len);
      out->push_back(bits(t.guard_scalar));
      out->push_back(static_cast<uint64_t>(t.guard_op));
      out->push_back(bits(t.guard_threshold));
    }
  }
}

/// Resizes `v` to `n` elements the caller overwrites: the old contents are
/// dropped, and a buffer that must grow grows to exactly `n`, not
/// geometrically, so a generation holds what its largest step needed.
template <typename Vector>
void ResizeExactly(Vector* v, size_t n) {
  if (n > v->capacity()) {
    Vector().swap(*v);
    v->reserve(n);
  }
  v->resize(n);
}

uint64_t RootsHash(std::span<const AnnotationId> roots) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  for (AnnotationId a : roots) {
    h ^= a;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

size_t PricingCache::Generation::Slot(
    std::span<const AnnotationId> key) const {
  const size_t mask = table.size() - 1;
  for (size_t p = RootsHash(key) & mask;; p = (p + 1) & mask) {
    if (table[p] == 0) return p;
    const std::span<const AnnotationId> roots = RootsOf(entries[table[p] - 1]);
    if (std::equal(roots.begin(), roots.end(), key.begin(), key.end())) {
      return p;
    }
  }
}

const PricingCache::Entry* PricingCache::Generation::Find(
    std::span<const AnnotationId> key) const {
  if (table.empty()) return nullptr;
  const uint32_t e = table[Slot(key)];
  return e == 0 ? nullptr : &entries[e - 1];
}

bool PricingCache::Generation::Insert(uint32_t i) {
  uint32_t& e = table[Slot(RootsOf(entries[i]))];
  if (e != 0) return false;
  e = i + 1;
  return true;
}

void PricingCache::Generation::Clear() {
  entries.clear();
  roots.clear();
  units.clear();
  sources.clear();
  terms.clear();
  table.clear();
}

void PricingCache::Layout(const std::vector<MergeQuery>& merges,
                          size_t lanes) {
  lanes_ = lanes;
  size_t roots = 0;
  size_t units = 0;
  size_t sources = 0;
  for (Entry& e : next_.entries) {
    e.roots_off = static_cast<uint32_t>(roots);
    e.units_off = static_cast<uint32_t>(units);
    e.src_off = static_cast<uint32_t>(sources);
    e.terms_off = units * lanes;
    roots += e.num_roots;
    units += e.num_units;
    sources += e.num_sources;
  }
  ResizeExactly(&next_.roots, roots);
  for (size_t i = 0; i < merges.size(); ++i) {
    std::copy(merges[i].roots.begin(), merges[i].roots.end(),
              next_.roots.begin() + next_.entries[i].roots_off);
  }
  ResizeExactly(&next_.units, units);
  ResizeExactly(&next_.sources, sources);
  ResizeExactly(&next_.terms, units * lanes);
}

uint64_t PricingCache::Commit() {
  // A power of two at least twice the entry count keeps probes short.
  size_t slots = 16;
  while (slots < 2 * next_.entries.size()) slots *= 2;
  next_.table.assign(slots, 0);
  bytes_ = 0;
  uint64_t evicted = 0;
  for (size_t i = 0; i < next_.entries.size(); ++i) {
    const Entry& e = next_.entries[i];
    const size_t b = kEntryHeaderBytes + e.num_units * sizeof(Unit) +
                     e.num_sources * sizeof(Source) +
                     e.num_units * lanes_ * sizeof(double) +
                     e.num_roots * sizeof(AnnotationId);
    if (bytes_ + b > kMaxBytes) {
      ++evicted;
      continue;
    }
    // Duplicate roots keep the first entry.
    if (next_.Insert(static_cast<uint32_t>(i))) bytes_ += b;
  }
  peak_bytes_ = std::max(peak_bytes_, bytes_);
  evictions_ += evicted;
  std::swap(cached_, next_);
  return evicted;
}

PricingCache::PricingCache() = default;
PricingCache::~PricingCache() = default;

void PricingCache::Clear() {
  cached_.Clear();
  next_.Clear();
  groups_.clear();
  bytes_ = 0;
}

/// Work counts of one priced merge, summed into the step-pricing counters.
struct PriceCounts {
  uint64_t priced = 0;    ///< dirty groups evaluated
  uint64_t reused = 0;    ///< dirty groups taken from the cache
  uint64_t refolded = 0;  ///< rows folded from the resumed fold states
};

/// \brief One step of dirty-group pricing over an aggregate expression
/// (EnumeratedDistance::PriceMerges). Prepare() runs once per step on the
/// calling thread; Size() and Price() are const and run on exec workers.
/// A run's PricingCache keeps one pricer, so the step arrays below keep
/// their capacity from step to step.
class StepPricer {
 public:
  /// Lowers and evaluates `current` (= h(p₀) for `state`) under the step's
  /// chunks, keeping every row's lane mask, the fold checkpoints and every
  /// group's terms. False when a side is not a vector result, the VAL-FUNC
  /// has no per-group term, or no group remap reconciles the base layout
  /// with the current one; every merge then materializes. The oracle's
  /// base blocks must be packed (EnsureBaseBlocks).
  bool Prepare(const EnumeratedDistance& oracle, PricingCache* cache,
               const ir::IrAggregateExpression& current,
               const MappingState& state, kernels::BatchProgram program);

  /// Sizing pre-pass: writes the numbers of roots, units and sources of
  /// merge `m`'s entry into `entry`.
  void Size(const MergeQuery& m, PricingCache::Entry* entry) const;

  /// Prices merge `i` into its entry of the cache's next generation, laid
  /// out by PricingCache::Layout from the Size() pass; returns true when
  /// its group remap is the identity.
  bool Price(size_t i, const MergeQuery& m, MergePrice* price,
             PriceCounts* counts) const;

  /// Lanes of one term array: every chunk's kLanes.
  size_t total_lanes() const { return total_lanes_; }

 private:
  /// Per-thread scratch of Size() and Price().
  struct Scratch {
    std::vector<uint32_t> moved;      // rows with a root in a factor
    std::vector<uint32_t> dirty;      // dirty current slots, ascending
    std::vector<uint32_t> key_slots;  // slots whose key is a root
    std::vector<int32_t> unit_of_slot;   // current slot -> unit, or -1
    std::vector<uint32_t> slot_of_unit;  // kept slot of a non-merged unit
    std::vector<uint8_t> fresh;          // unit needs evaluation
    std::vector<uint32_t> merged_rows;   // rows of the root-keyed groups
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

  /// The calling thread's scratch.
  static Scratch& LocalScratch() {
    thread_local Scratch sc;
    return sc;
  }

  /// Fills sc.moved (the rows the merge moves), sc.key_slots (the slots
  /// keyed by a root) and sc.dirty (their union with the moved rows'
  /// slots), each ascending.
  void FindDirty(std::span<const AnnotationId> roots, Scratch* sc) const;

  // The step's inputs, set by Prepare().
  const EnumeratedDistance* oracle_ = nullptr;
  PricingCache* cache_ = nullptr;
  const ir::IrAggregateExpression* current_ = nullptr;
  const MappingState* state_ = nullptr;
  kernels::ValFuncBatchKind vf_ = kernels::ValFuncBatchKind::kNone;

  kernels::BatchProgram program_;
  size_t num_groups_ = 0;
  int64_t size_ = 0;
  kernels::GroupRemap remap_;  // base slots -> current slots
  std::vector<uint32_t> row_begin_;    // current slot -> first row
  std::vector<int64_t> group_size_;
  std::vector<std::pair<AnnotationId, uint32_t>> occurs_;  // (ann, row)
  std::vector<uint64_t> versions_;
  // v^{h,φ} under the step's state, one block per grain-8 chunk.
  std::vector<kernels::ValuationBlock> blocks_;
  // Per chunk c: row i's lane mask at masks_[c · R + i], and the fold
  // state of row k · stride_'s group in front of that row at
  // checkpoints_[c · num_checkpoints_ + k].
  std::vector<uint64_t> masks_;
  size_t stride_ = 1;
  size_t num_checkpoints_ = 0;
  std::vector<kernels::AggAccumulator> checkpoints_;
  std::vector<kernels::AggAccumulator> acc_;  // one chunk's fold, per group
  // Chunk-major term arrays: chunk c's lanes start at c · kLanes · G in
  // the step arrays below and at c · kLanes within a cached unit.
  size_t total_lanes_ = 0;
  std::vector<double> proj_;      // base projected into current slots
  std::vector<double> terms_;     // terms against proj_
  std::vector<double> terms_id_;  // against the raw base (identity remap)
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
  if (!kernels::BuildGroupRemap(oracle_->base_kind_,
                                oracle_->base_groups_.data(),
                                oracle_->base_groups_.size(), program_,
                                state_->cumulative(), &remap_)) {
    return false;
  }

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
  std::sort(occurs_.begin(), occurs_.end());
  occurs_.erase(std::unique(occurs_.begin(), occurs_.end()), occurs_.end());
  size_ = current_->Size();

  // Group versions against the previous step's rows.
  if (cache_->identity_on_groups_ != remap_.identity()) {
    // The candidates' projection changes form (raw base vs folded base),
    // so no cached term carries over.
    cache_->Clear();
    cache_->identity_on_groups_ = remap_.identity();
  }
  versions_.resize(G);
  const uint64_t step = ++cache_->step_;
  for (size_t g = 0; g < G; ++g) {
    GroupContent(*current_, row_begin_[g], row_begin_[g + 1],
                 &cache_->content_);
    auto [it, added] = cache_->groups_.try_emplace(groups[g]);
    PricingCache::GroupState& state = it->second;
    if (added || state.content != cache_->content_) {
      state.content.assign(cache_->content_.begin(), cache_->content_.end());
      state.version = ++cache_->next_version_;
    }
    state.seen = step;
    versions_[g] = state.version;
  }
  std::erase_if(cache_->groups_,
                [&](const auto& kv) { return kv.second.seen != step; });

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
  // guard body. Their groups and the groups keyed by a root are the dirty
  // slots; roots that are group keys fold their groups into t's.
  const AnnotationId* groups = program_.groups;
  const size_t G = num_groups_;
  sc->moved.clear();
  sc->key_slots.clear();
  for (AnnotationId r : roots) {
    auto it = std::lower_bound(occurs_.begin(), occurs_.end(),
                               std::make_pair(r, uint32_t{0}));
    for (; it != occurs_.end() && it->first == r; ++it) {
      sc->moved.push_back(it->second);
    }
    const AnnotationId* k = std::lower_bound(groups, groups + G, r);
    if (k != groups + G && *k == r) {
      sc->key_slots.push_back(static_cast<uint32_t>(k - groups));
    }
  }
  std::sort(sc->moved.begin(), sc->moved.end());
  sc->moved.erase(std::unique(sc->moved.begin(), sc->moved.end()),
                  sc->moved.end());
  std::sort(sc->key_slots.begin(), sc->key_slots.end());
  sc->dirty.assign(sc->key_slots.begin(), sc->key_slots.end());
  for (uint32_t i : sc->moved) sc->dirty.push_back(program_.agg_rows[i].group);
  std::sort(sc->dirty.begin(), sc->dirty.end());
  sc->dirty.erase(std::unique(sc->dirty.begin(), sc->dirty.end()),
                  sc->dirty.end());
}

void StepPricer::Size(const MergeQuery& m, PricingCache::Entry* entry) const {
  Scratch& sc = LocalScratch();
  FindDirty(m.roots, &sc);
  // One unit per dirty slot the merge keeps, plus the merged group; one
  // source per dirty slot.
  entry->num_roots = static_cast<uint32_t>(m.roots.size());
  entry->num_units = static_cast<uint32_t>(sc.dirty.size() -
                                           sc.key_slots.size() +
                                           (sc.key_slots.empty() ? 0 : 1));
  entry->num_sources = static_cast<uint32_t>(sc.dirty.size());
}

bool StepPricer::Price(size_t i, const MergeQuery& m, MergePrice* price,
                       PriceCounts* counts) const {
  Scratch& sc = LocalScratch();
  const std::span<const AnnotationId> roots = m.roots;
  const AnnotationId t = m.scratch;
  const size_t G = num_groups_;
  const AnnotationId* groups = program_.groups;
  const std::vector<kernels::AggBatchRow>& rows = program_.agg_rows;
  const size_t R = rows.size();
  const std::vector<kernels::BlockEval>& base = oracle_->base_blocks_;
  FindDirty(roots, &sc);
  const bool identity = remap_.identity() && sc.key_slots.empty();

  // The entry's ranges of the next generation, sized by Size().
  PricingCache::Generation& gen = cache_->next_;
  const PricingCache::Entry& entry = gen.entries[i];
  PricingCache::Unit* const units = gen.units.data() + entry.units_off;
  PricingCache::Source* const sources = gen.sources.data() + entry.src_off;
  double* const terms = gen.terms.data() + entry.terms_off;
  const size_t num_units = entry.num_units;

  // Units: one per dirty slot the merge keeps, then the merged group.
  sc.unit_of_slot.assign(G, -1);
  sc.slot_of_unit.clear();
  size_t u_next = 0;
  uint32_t src_next = 0;
  auto add_unit = [&](bool merged) {
    PricingCache::Unit& u = units[u_next];
    u = PricingCache::Unit{};
    u.merged = merged;
    u.src_end = u.src_begin = src_next;
    u.terms_off = static_cast<uint32_t>(u_next * total_lanes_);
    ++u_next;
    return &u;
  };
  for (uint32_t g : sc.dirty) {
    if (std::binary_search(sc.key_slots.begin(), sc.key_slots.end(), g)) {
      continue;
    }
    sc.unit_of_slot[g] = static_cast<int32_t>(u_next);
    sc.slot_of_unit.push_back(g);
    PricingCache::Unit* u = add_unit(false);
    sources[src_next++] = {groups[g], versions_[g]};
    ++u->src_end;
  }
  const int32_t merged_unit =
      sc.key_slots.empty() ? -1 : static_cast<int32_t>(u_next);
  if (merged_unit >= 0) {
    PricingCache::Unit* u = add_unit(true);
    for (uint32_t g : sc.key_slots) {
      sources[src_next++] = {groups[g], versions_[g]};
    }
    u->src_end = src_next;
  }
  assert(u_next == num_units && src_next == entry.num_sources);

  // Reuse the terms of units whose source groups are unchanged since the
  // step that computed them.
  sc.fresh.assign(num_units, 1);
  if (const PricingCache::Entry* old = cache_->cached_.Find(roots)) {
    const PricingCache::Generation& prev = cache_->cached_;
    const PricingCache::Unit* old_units = prev.units.data() + old->units_off;
    const PricingCache::Source* old_sources =
        prev.sources.data() + old->src_off;
    const double* old_terms = prev.terms.data() + old->terms_off;
    for (size_t u = 0; u < num_units; ++u) {
      PricingCache::Unit& unit = units[u];
      for (size_t k = 0; k < old->num_units; ++k) {
        const PricingCache::Unit& o = old_units[k];
        if (o.merged == unit.merged &&
            o.src_end - o.src_begin == unit.src_end - unit.src_begin &&
            std::equal(old_sources + o.src_begin, old_sources + o.src_end,
                       sources + unit.src_begin)) {
          std::copy_n(old_terms + o.terms_off, total_lanes_,
                      terms + unit.terms_off);
          unit.size = o.size;
          sc.fresh[u] = 0;
          ++counts->reused;
          break;
        }
      }
    }
  }

  // Fresh units: lower the rows the merge moves, splice them among the
  // rows it keeps, and resume the group's fold at the last checkpoint in
  // front of the first changed row.
  sc.t_masks.clear();
  for (size_t u = 0; u < num_units; ++u) {
    if (!sc.fresh[u]) continue;
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
    PricingCache::Unit& unit = units[u];
    const bool merged = static_cast<int32_t>(u) == merged_unit;
    uint32_t begin = 0;
    uint32_t end = 0;
    const uint32_t* moved_begin;
    const uint32_t* moved_end;
    if (merged) {
      // Every row of the root-keyed groups moves into t's group.
      sc.merged_rows.clear();
      for (uint32_t g : sc.key_slots) {
        for (uint32_t i = row_begin_[g]; i < row_begin_[g + 1]; ++i) {
          sc.merged_rows.push_back(i);
        }
      }
      moved_begin = sc.merged_rows.data();
      moved_end = moved_begin + sc.merged_rows.size();
    } else {
      const uint32_t g = sc.slot_of_unit[u];
      begin = row_begin_[g];
      end = row_begin_[g + 1];
      const uint32_t* moved_last = sc.moved.data() + sc.moved.size();
      moved_begin = std::lower_bound(
          static_cast<const uint32_t*>(sc.moved.data()), moved_last, begin);
      moved_end = std::lower_bound(moved_begin, moved_last, end);
    }
    current_->LowerMoved(moved_begin,
                         static_cast<size_t>(moved_end - moved_begin),
                         roots.data(), roots.size(), t, begin, end,
                         &sc.lowered);
    const std::vector<kernels::AggBatchRow>& lowered = sc.lowered.rows;

    // The fold resumes at checkpoint k (row k · stride_) when that row is
    // in this group, else at the group's first row from a zero state.
    size_t k = 0;
    bool from_checkpoint = false;
    uint32_t start = begin;
    if (!merged) {
      const uint32_t first = std::min(*moved_begin, sc.lowered.before[0]);
      k = first / stride_;
      if (k * stride_ >= begin) {
        from_checkpoint = true;
        start = static_cast<uint32_t>(k * stride_);
      }
    }
    sc.fold_rows.clear();
    sc.fold_src.clear();
    int64_t size = 0;
    for (const kernels::AggBatchRow& r : lowered) {
      size += r.mono.len + r.guard_mono.len;
    }
    if (!merged) {
      size += group_size_[sc.slot_of_unit[u]];
      for (const uint32_t* i = moved_begin; i != moved_end; ++i) {
        size -= rows[*i].mono.len + rows[*i].guard_mono.len;
      }
    }
    size_t j = 0;
    auto push_lowered_until = [&](uint32_t i) {
      for (; j < lowered.size() && sc.lowered.before[j] <= i; ++j) {
        sc.fold_rows.push_back(lowered[j]);
        sc.fold_src.push_back(kLowered);
      }
    };
    const uint32_t* mv = moved_begin;
    for (uint32_t i = start; i < end; ++i) {
      push_lowered_until(i);
      if (mv != moved_end && *mv == i) {
        ++mv;
        continue;
      }
      sc.fold_rows.push_back(rows[i]);
      sc.fold_rows.back().group = 0;
      sc.fold_src.push_back(i);
    }
    push_lowered_until(UINT32_MAX);
    unit.size = size;

    // The merged group's base preimage: base slots whose current image is
    // a root key, ascending.
    if (merged) {
      sc.merged_sources.clear();
      for (size_t b = 0; b < remap_.slot.size(); ++b) {
        if (std::binary_search(sc.key_slots.begin(), sc.key_slots.end(),
                               remap_.slot[b])) {
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
          from_checkpoint ? checkpoints_[c * num_checkpoints_ + k]
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
        const uint32_t g = sc.slot_of_unit[u];
        bv = identity ? base[c].values.data() + g * kLanes
                      : proj_.data() + (c * G + g) * kLanes;
      }
      double* out = terms + unit.terms_off + c * kLanes;
      for (size_t l = 0; l < kLanes; ++l) {
        out[l] = GroupTerm(vf_, bv[l], cv[l]);
      }
    }
    ++counts->priced;
    counts->refolded += n;
  }

  // Size: the dirty groups' rows are replaced by the units' rows.
  int64_t size = size_;
  for (uint32_t g : sc.dirty) size -= group_size_[g];
  for (size_t u = 0; u < num_units; ++u) size += units[u].size;

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
    if (std::binary_search(sc.key_slots.begin(), sc.key_slots.end(),
                           static_cast<uint32_t>(g))) {
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
        (identity ? terms_id_.data() : terms_.data()) + lane_off * G;
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
  price->distance = (total / oracle_->total_weight_) / oracle_->max_error_;
  price->size = size;
  return identity;
}

void EnumeratedDistance::PriceMerges(const ProvenanceExpression& current,
                                     const MappingState& state,
                                     const std::vector<MergeQuery>& merges,
                                     exec::ThreadPool* pool,
                                     PricingCache* cache,
                                     std::vector<MergePrice>* out) {
  out->assign(merges.size(), MergePrice{});
  const ir::IrAggregateExpression* agg = current.AsAggregate();
  if (agg != nullptr && !valuations_.empty() && EnsureBaseBlocks()) {
    if (cache->pricer_ == nullptr) {
      cache->pricer_ = std::make_unique<StepPricer>();
    }
    StepPricer& pricer = *cache->pricer_;
    if (pricer.Prepare(*this, cache, *agg, state, agg->LowerBatch())) {
      const DistanceMetrics& metrics = DistanceMetrics::Get();
      const int64_t n = static_cast<int64_t>(merges.size());
      // Size every entry, lay the generation out, then price in place.
      cache->next_.entries.assign(merges.size(), PricingCache::Entry{});
      exec::ParallelFor(pool, 0, n, 16, [&](int64_t idx) {
        const size_t i = static_cast<size_t>(idx);
        pricer.Size(merges[i], &cache->next_.entries[i]);
      });
      cache->Layout(merges, pricer.total_lanes());
      std::atomic<uint64_t> priced{0};
      std::atomic<uint64_t> reused{0};
      std::atomic<uint64_t> refolded{0};
      exec::ParallelFor(pool, 0, n, 1, [&](int64_t idx) {
        const size_t i = static_cast<size_t>(idx);
        Timer timer;
        PriceCounts counts;
        CountPricedMerge(pricer.Price(i, merges[i], &(*out)[i], &counts));
        priced.fetch_add(counts.priced, std::memory_order_relaxed);
        reused.fetch_add(counts.reused, std::memory_order_relaxed);
        refolded.fetch_add(counts.refolded, std::memory_order_relaxed);
        (*out)[i].nanos = timer.ElapsedNanos();
      });
      metrics.groups_priced->Increment(priced.load());
      metrics.groups_reused->Increment(reused.load());
      metrics.rows_refolded->Increment(refolded.load());
      metrics.cache_evictions->Increment(cache->Commit());
      return;
    }
  }
  // Every group dirty: build each candidate and price it whole.
  cache->Clear();
  exec::ParallelFor(
      pool, 0, static_cast<int64_t>(merges.size()), 1, [&](int64_t idx) {
        const size_t i = static_cast<size_t>(idx);
        Timer timer;
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
        (*out)[i].nanos = timer.ElapsedNanos();
      });
}

EnumeratedDistance::EnumeratedDistance(const ProvenanceExpression* p0,
                                       const AnnotationRegistry* registry,
                                       const ValFunc* val_func,
                                       std::vector<Valuation> valuations,
                                       int threads)
    : p0_(p0),
      registry_(registry),
      val_func_(val_func),
      valuations_(std::move(valuations)),
      pool_(threads) {
  const size_t n = registry_->size();
  base_evals_.reserve(valuations_.size());
  for (const auto& v : valuations_) {
    base_evals_.push_back(p0_->Evaluate(MaterializedValuation(v, n)));
    total_weight_ += v.weight();
  }
  EvalResult all_true = p0_->Evaluate(MaterializedValuation(n));
  max_error_ = val_func_->MaxError(all_true);
  if (max_error_ <= 0.0) max_error_ = 1.0;
}

bool EnumeratedDistance::EnsureBaseBlocks() {
  std::call_once(base_blocks_once_, [&] {
    base_kind_ = base_evals_[0].kind();
    if (base_kind_ == EvalResult::Kind::kVector) {
      base_groups_.reserve(base_evals_[0].coords().size());
      for (const auto& c : base_evals_[0].coords()) {
        base_groups_.push_back(c.group);
      }
    }
    const size_t count = base_evals_.size();
    const size_t num_chunks =
        (count + kReductionGrain - 1) / kReductionGrain;
    base_blocks_.resize(num_chunks);
    base_blocks_ok_ = true;
    for (size_t c = 0; c < num_chunks; ++c) {
      const size_t lo = c * kReductionGrain;
      const size_t w = std::min(count - lo, size_t{kReductionGrain});
      // Every base eval must share the layout of the first one; a
      // structurally heterogeneous valuation class keeps the scalar path.
      if (!kernels::PackEvalBlock(&base_evals_[lo], w, base_kind_,
                                  base_groups_.data(), base_groups_.size(),
                                  &base_blocks_[c])) {
        base_blocks_ok_ = false;
        base_blocks_.clear();
        return;
      }
    }
  });
  return base_blocks_ok_;
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
  const size_t n = registry_->size();
  metrics.enumerated_evals->Increment(valuations_.size());
  // When the cumulative homomorphism leaves every group key of the cached
  // base evaluations untouched (the common case — most merges group
  // non-key annotations like users), the projection is the identity and
  // the cached results feed VAL-FUNC directly, on either path. Each path
  // decides that once: the batch path through its remap, the scalar loop
  // through IdentityOnGroups.
  //
  // Batch path: the candidate lowers once into a flat program and each
  // grain-8 chunk is evaluated in one pass over the program rows by the
  // SIMD kernels. When a merge touched a group key, the cached base
  // blocks are projected into the candidate's group slots through a remap
  // table (kernels::ProjectBlock) instead of per valuation. Chunk
  // boundaries, per-lane arithmetic and the weighted fold order all
  // replicate the scalar path, so the distance is bit-identical
  // (docs/KERNELS.md); only a VAL-FUNC without a batch counterpart or an
  // irreconcilable layout keeps the scalar loop below.
  const kernels::ValFuncBatchKind vf_kind = val_func_->batch_kind();
  const kernels::BatchEvalFacade* facade = cand.AsBatchEval();
  if (facade != nullptr && vf_kind != kernels::ValFuncBatchKind::kNone &&
      EnsureBaseBlocks()) {
    const kernels::BatchProgram program = facade->LowerBatch();
    kernels::GroupRemap remap;
    if (kernels::BuildGroupRemap(base_kind_, base_groups_.data(),
                                 base_groups_.size(), program,
                                 state.cumulative(), &remap)) {
      if (remap.identity()) {
        metrics.base_eval_reuse->Increment(valuations_.size());
      }
      kernels::CountBatchEvals(valuations_.size());
      const double penalty = val_func_->batch_mismatch_penalty();
      const double total = exec::DeterministicChunkSum(
          pool_.pool(), static_cast<int64_t>(valuations_.size()),
          kReductionGrain, [&](int64_t lo, int64_t /*hi*/) {
            thread_local kernels::ValuationBlock block;
            thread_local kernels::BlockEval cand_eval;
            thread_local kernels::BlockEval projected;
            const size_t c = static_cast<size_t>(lo / kReductionGrain);
            TransformChunk(state, c, &block);
            kernels::EvaluateBlock(program, block, &cand_eval);
            const kernels::BlockEval& orig = kernels::ProjectBlock(
                remap, program, base_blocks_[c], &projected);
            double err[kLanes];
            kernels::ValFuncBlockErrors(vf_kind, penalty, orig, cand_eval,
                                        err);
            double partial = 0.0;
            for (size_t l = 0; l < block.width(); ++l) {
              partial +=
                  valuations_[static_cast<size_t>(lo) + l].weight() * err[l];
            }
            return partial;
          });
      return (total / total_weight_) / max_error_;
    }
  }
  kernels::CountScalarFallback();
  const bool identity_on_groups = IdentityOnGroups(base_evals_[0], state);
  if (identity_on_groups) {
    metrics.base_eval_reuse->Increment(valuations_.size());
  }
  const double total = exec::DeterministicSum(
      pool_.pool(), static_cast<int64_t>(valuations_.size()), kReductionGrain,
      [&](int64_t i) {
        const Valuation& v = valuations_[static_cast<size_t>(i)];
        EvalResult summ = cand.Evaluate(state.Transform(v, n));
        if (identity_on_groups) {
          return v.weight() *
                 val_func_->Compute(base_evals_[static_cast<size_t>(i)], summ);
        }
        EvalResult orig = cand.ProjectEvalResult(
            base_evals_[static_cast<size_t>(i)], state.cumulative());
        return v.weight() * val_func_->Compute(orig, summ);
      });
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
