#include "summarize/distance.h"

#include <algorithm>
#include <atomic>
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

/// Metric handles for the distance oracles (docs/OBSERVABILITY.md).
struct DistanceMetrics {
  obs::Counter* enumerated_calls;
  obs::Counter* enumerated_evals;
  obs::Counter* base_eval_reuse;
  obs::Counter* sampled_calls;
  obs::Counter* samples;
  obs::Counter* groups_priced;
  obs::Counter* groups_reused;
  obs::Counter* cache_evictions;

  static const DistanceMetrics& Get() {
    static const DistanceMetrics m = [] {
      auto& r = obs::MetricsRegistry::Default();
      DistanceMetrics m;
      m.enumerated_calls = r.GetCounter(
          "prox_distance_enumerated_calls_total",
          "Candidates priced by the enumerated oracle (Distance calls and "
          "step-priced merges).");
      m.enumerated_evals = r.GetCounter(
          "prox_distance_enumerated_evals_total",
          "Candidate-expression evaluations performed by the enumerated "
          "oracle (one per valuation per call).");
      m.base_eval_reuse = r.GetCounter(
          "prox_distance_base_eval_reuse_total",
          "Cached base evaluations fed to VAL-FUNC directly via the "
          "identity-on-groups fast path (no re-projection).");
      m.sampled_calls = r.GetCounter(
          "prox_distance_sampled_calls_total",
          "Candidates priced by the sampled oracle (Distance calls and "
          "step-priced merges).");
      m.samples = r.GetCounter(
          "prox_distance_samples_total",
          "Monte-Carlo valuations drawn by the sampled oracle.");
      m.groups_priced = r.GetCounter(
          "prox_summarize_groups_priced_total",
          "Dirty groups of candidate merges re-canonicalized and evaluated "
          "by step pricing.");
      m.groups_reused = r.GetCounter(
          "prox_summarize_groups_reused_total",
          "Dirty groups of candidate merges whose VAL-FUNC terms came from "
          "the cross-step pricing cache.");
      m.cache_evictions = r.GetCounter(
          "prox_summarize_pricing_cache_evictions_total",
          "Candidate entries dropped by the pricing cache's byte cap.");
      return m;
    }();
    return m;
  }
};

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

/// A process-unique id per pricing step, so exec workers can tell when
/// their copies of the step's blocks are stale.
uint64_t NextStepId() {
  static std::atomic<uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Row content of one group, for the cross-step version check: everything
/// LowerMapped and evaluation read from a row.
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

}  // namespace

size_t PricingCache::Entry::bytes() const {
  return sizeof(Entry) + units.size() * sizeof(Unit) +
         sources.size() * sizeof(sources[0]) + terms.size() * sizeof(double);
}

size_t PricingCache::RootsHash::operator()(
    const std::vector<AnnotationId>& roots) const {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  for (AnnotationId a : roots) {
    h ^= a;
    h *= 0x100000001b3ull;
  }
  return static_cast<size_t>(h);
}

uint64_t PricingCache::Commit(const std::vector<MergeQuery>& merges,
                              std::vector<Entry>* entries) {
  entries_.clear();
  bytes_ = 0;
  uint64_t evicted = 0;
  for (size_t i = 0; i < merges.size(); ++i) {
    Entry& e = (*entries)[i];
    const size_t b =
        e.bytes() + merges[i].roots->size() * sizeof(AnnotationId);
    if (bytes_ + b > kMaxBytes) {
      ++evicted;
      continue;
    }
    if (entries_.emplace(*merges[i].roots, std::move(e)).second) bytes_ += b;
  }
  peak_bytes_ = std::max(peak_bytes_, bytes_);
  evictions_ += evicted;
  return evicted;
}

void PricingCache::Clear() {
  entries_.clear();
  groups_.clear();
  bytes_ = 0;
}

/// \brief One step of dirty-group pricing over an aggregate expression
/// (DistanceOracle::PriceMerges). Prepare() runs once per step on the
/// calling thread; Price() is const and runs on exec workers.
class StepPricer {
 public:
  StepPricer(const ir::IrAggregateExpression& current,
             const MappingState& state, double max_error,
             DistanceOracle::PricingInputs* in, PricingCache* cache)
      : current_(current),
        state_(state),
        max_error_(max_error),
        in_(*in),
        cache_(cache) {}

  /// Lowers and evaluates the current expression under the step's chunks
  /// and derives every group's terms. False when no group remap reconciles
  /// the base layout with the current one (every merge then materializes).
  bool Prepare(kernels::BatchProgram program);

  /// Prices one merge; returns true when its group remap is the identity.
  bool Price(const MergeQuery& m, MergePrice* price,
             PricingCache::Entry* entry, uint64_t* priced,
             uint64_t* reused) const;

 private:
  /// Per-thread scratch of Price().
  struct Scratch {
    std::vector<uint32_t> dirty;      // dirty current slots, ascending
    std::vector<uint32_t> key_slots;  // slots whose key is a root
    std::vector<int32_t> unit_of_slot;  // current slot -> unit, or -1
    std::vector<uint32_t> slot_of_unit;  // kept slot of a non-merged unit
    std::vector<uint8_t> fresh;          // unit needs evaluation
    std::vector<int32_t> unit_of_run;    // dirty-program slot -> unit
    std::vector<uint32_t> fresh_slots;
    std::vector<uint32_t> rows;
    std::vector<uint32_t> merged_sources;  // base slots of the merged group
    ir::MappedRows mapped;
    kernels::BatchProgram program;
    uint64_t step = 0;  // the step `blocks` were copied from
    std::vector<kernels::ValuationBlock> blocks;
    kernels::BlockEval eval;
    std::vector<const double*> terms;
    double base_value[kernels::kMaxLanes] = {};
    double base_count[kernels::kMaxLanes] = {};
  };

  const ir::IrAggregateExpression& current_;
  const MappingState& state_;
  const double max_error_;
  const DistanceOracle::PricingInputs& in_;
  PricingCache* cache_;

  const uint64_t step_ = NextStepId();
  kernels::BatchProgram program_;
  size_t num_groups_ = 0;
  int64_t size_ = 0;
  kernels::GroupRemap remap_;  // base slots -> current slots
  std::vector<uint32_t> row_begin_;    // current slot -> first row
  std::vector<int64_t> group_size_;
  std::vector<std::pair<AnnotationId, uint32_t>> occurs_;  // (ann, slot)
  std::vector<uint64_t> versions_;
  // Per chunk: lane offset into the chunk-major term arrays (chunk c's
  // lanes start at lane_off_[c] · G for the step arrays below and at
  // lane_off_[c] within a cached unit).
  std::vector<size_t> lane_off_;
  size_t total_lanes_ = 0;
  std::vector<double> proj_;      // base projected into current slots
  std::vector<double> terms_;     // terms against proj_
  std::vector<double> terms_id_;  // against the raw base (identity remap)
};

bool StepPricer::Prepare(kernels::BatchProgram program) {
  program_ = std::move(program);
  const kernels::ValFuncBatchKind vf = in_.vf_kind;
  if (in_.chunks.empty() || in_.base_kind != EvalResult::Kind::kVector ||
      (vf != kernels::ValFuncBatchKind::kL1 &&
       vf != kernels::ValFuncBatchKind::kL2 &&
       vf != kernels::ValFuncBatchKind::kDisagreement)) {
    return false;
  }
  const size_t G = program_.num_groups;
  const AnnotationId* groups = program_.groups;
  num_groups_ = G;

  // Base slot -> current slot through the cumulative h, and each current
  // slot's ascending preimage.
  if (!kernels::BuildGroupRemap(in_.base_kind, in_.base_groups->data(),
                                in_.base_groups->size(), program_,
                                state_.cumulative(), &remap_)) {
    return false;
  }

  // Rows are group-sorted: per-slot row ranges, sizes and occurrences.
  row_begin_.assign(G + 1, 0);
  group_size_.assign(G, 0);
  occurs_.clear();
  for (const kernels::AggBatchRow& r : program_.agg_rows) {
    ++row_begin_[r.group + 1];
    group_size_[r.group] += r.mono.len + r.guard_mono.len;
    for (uint32_t k = 0; k < r.mono.len; ++k) {
      occurs_.emplace_back(r.mono.data[k], r.group);
    }
    for (uint32_t k = 0; k < r.guard_mono.len; ++k) {
      occurs_.emplace_back(r.guard_mono.data[k], r.group);
    }
  }
  for (size_t g = 0; g < G; ++g) {
    row_begin_[g + 1] += row_begin_[g];
    occurs_.emplace_back(groups[g], static_cast<uint32_t>(g));
  }
  std::sort(occurs_.begin(), occurs_.end());
  occurs_.erase(std::unique(occurs_.begin(), occurs_.end()), occurs_.end());
  size_ = current_.Size();

  // Group versions against the previous step's rows.
  if (cache_->identity_on_groups_ != remap_.identity()) {
    // The candidates' projection changes form (raw base vs folded base),
    // so no cached term carries over.
    cache_->Clear();
    cache_->identity_on_groups_ = remap_.identity();
  }
  versions_.resize(G);
  std::unordered_map<AnnotationId, PricingCache::GroupState> next;
  next.reserve(G);
  for (size_t g = 0; g < G; ++g) {
    PricingCache::GroupState state;
    GroupContent(current_, row_begin_[g], row_begin_[g + 1], &state.content);
    auto it = cache_->groups_.find(groups[g]);
    state.version = it != cache_->groups_.end() &&
                            it->second.content == state.content
                        ? it->second.version
                        : ++cache_->next_version_;
    versions_[g] = state.version;
    next.emplace(groups[g], std::move(state));
  }
  cache_->groups_ = std::move(next);

  // The current state's values and terms, per chunk.
  lane_off_.resize(in_.chunks.size());
  total_lanes_ = 0;
  for (size_t c = 0; c < in_.chunks.size(); ++c) {
    lane_off_[c] = total_lanes_;
    total_lanes_ += in_.chunks[c].block.stride();
  }
  proj_.resize(total_lanes_ * G);
  terms_.resize(total_lanes_ * G);
  terms_id_.resize(remap_.identity() ? total_lanes_ * G : 0);
  double counts[kernels::kMaxLanes] = {};
  kernels::BlockEval cur;
  for (size_t c = 0; c < in_.chunks.size(); ++c) {
    const DistanceOracle::PricingChunk& chunk = in_.chunks[c];
    const size_t stride = chunk.block.stride();
    kernels::EvaluateBlock(program_, chunk.block, &cur);
    for (size_t g = 0; g < G; ++g) {
      const size_t off = lane_off_[c] * G + g * stride;
      kernels::FoldBaseSlots(program_.agg, *chunk.base,
                             remap_.src.data() + remap_.src_off[g],
                             remap_.src_off[g + 1] - remap_.src_off[g],
                             proj_.data() + off, counts);
      const double* cv = cur.values.data() + g * stride;
      for (size_t l = 0; l < stride; ++l) {
        terms_[off + l] = GroupTerm(vf, proj_[off + l], cv[l]);
      }
      if (remap_.identity()) {
        const double* bv = chunk.base->values.data() + g * stride;
        for (size_t l = 0; l < stride; ++l) {
          terms_id_[off + l] = GroupTerm(vf, bv[l], cv[l]);
        }
      }
    }
  }
  return true;
}

bool StepPricer::Price(const MergeQuery& m, MergePrice* price,
                       PricingCache::Entry* entry, uint64_t* priced,
                       uint64_t* reused) const {
  thread_local Scratch sc;
  const std::vector<AnnotationId>& roots = *m.roots;
  const AnnotationId t = m.scratch;
  const size_t G = num_groups_;
  const AnnotationId* groups = program_.groups;
  const kernels::ValFuncBatchKind vf = in_.vf_kind;

  // Dirty slots: every group with a root in a monomial, guard body or
  // group key. Roots that are group keys fold their groups into t's.
  sc.dirty.clear();
  sc.key_slots.clear();
  for (AnnotationId r : roots) {
    auto it = std::lower_bound(occurs_.begin(), occurs_.end(),
                               std::make_pair(r, uint32_t{0}));
    for (; it != occurs_.end() && it->first == r; ++it) {
      sc.dirty.push_back(it->second);
    }
    const AnnotationId* k = std::lower_bound(groups, groups + G, r);
    if (k != groups + G && *k == r) {
      sc.key_slots.push_back(static_cast<uint32_t>(k - groups));
    }
  }
  std::sort(sc.dirty.begin(), sc.dirty.end());
  sc.dirty.erase(std::unique(sc.dirty.begin(), sc.dirty.end()),
                 sc.dirty.end());
  std::sort(sc.key_slots.begin(), sc.key_slots.end());
  const bool identity = remap_.identity() && sc.key_slots.empty();

  // Units: one per dirty slot the merge keeps, then the merged group.
  entry->units.clear();
  entry->sources.clear();
  sc.unit_of_slot.assign(G, -1);
  sc.slot_of_unit.clear();
  auto add_unit = [&](bool merged) {
    PricingCache::Unit u;
    u.merged = merged;
    u.src_end = u.src_begin = static_cast<uint32_t>(entry->sources.size());
    u.terms_off = static_cast<uint32_t>(entry->units.size() * total_lanes_);
    entry->units.push_back(u);
    return &entry->units.back();
  };
  for (uint32_t g : sc.dirty) {
    if (std::binary_search(sc.key_slots.begin(), sc.key_slots.end(), g)) {
      continue;
    }
    sc.unit_of_slot[g] = static_cast<int32_t>(entry->units.size());
    sc.slot_of_unit.push_back(g);
    PricingCache::Unit* u = add_unit(false);
    entry->sources.emplace_back(groups[g], versions_[g]);
    ++u->src_end;
  }
  const int32_t merged_unit =
      sc.key_slots.empty() ? -1 : static_cast<int32_t>(entry->units.size());
  if (merged_unit >= 0) {
    PricingCache::Unit* u = add_unit(true);
    for (uint32_t g : sc.key_slots) {
      entry->sources.emplace_back(groups[g], versions_[g]);
    }
    u->src_end = static_cast<uint32_t>(entry->sources.size());
  }
  entry->terms.resize(entry->units.size() * total_lanes_);

  // Reuse the terms of units whose source groups are unchanged since the
  // step that computed them.
  sc.fresh.assign(entry->units.size(), 1);
  auto found = cache_->entries_.find(roots);
  if (found != cache_->entries_.end()) {
    const PricingCache::Entry& old = found->second;
    for (size_t u = 0; u < entry->units.size(); ++u) {
      PricingCache::Unit& unit = entry->units[u];
      for (const PricingCache::Unit& o : old.units) {
        if (o.merged == unit.merged &&
            o.src_end - o.src_begin == unit.src_end - unit.src_begin &&
            std::equal(old.sources.begin() + o.src_begin,
                       old.sources.begin() + o.src_end,
                       entry->sources.begin() + unit.src_begin)) {
          std::copy_n(old.terms.begin() + o.terms_off, total_lanes_,
                      entry->terms.begin() + unit.terms_off);
          unit.size = o.size;
          sc.fresh[u] = 0;
          ++*reused;
          break;
        }
      }
    }
  }

  // Re-canonicalize and evaluate the fresh units' rows.
  sc.fresh_slots.clear();
  for (uint32_t g : sc.dirty) {
    const int32_t u = sc.unit_of_slot[g] >= 0 ? sc.unit_of_slot[g]
                                              : merged_unit;
    if (sc.fresh[static_cast<size_t>(u)]) sc.fresh_slots.push_back(g);
  }
  if (!sc.fresh_slots.empty()) {
    sc.rows.clear();
    for (uint32_t g : sc.fresh_slots) {
      for (uint32_t i = row_begin_[g]; i < row_begin_[g + 1]; ++i) {
        sc.rows.push_back(i);
      }
    }
    current_.LowerMapped(sc.rows.data(), sc.rows.size(), roots.data(),
                         roots.size(), t, &sc.mapped);
    // Rows come out group-sorted: one run per fresh unit, which becomes
    // the unit's slot in the dirty program.
    std::vector<int32_t>& unit_of_run = sc.unit_of_run;
    unit_of_run.clear();
    for (size_t i = 0; i < sc.mapped.rows.size(); ++i) {
      const AnnotationId key = sc.mapped.keys[i];
      if (i == 0 || key != sc.mapped.keys[i - 1]) {
        const int32_t u =
            key == t ? merged_unit
                     : sc.unit_of_slot[std::lower_bound(groups, groups + G,
                                                        key) -
                                       groups];
        unit_of_run.push_back(u);
        entry->units[static_cast<size_t>(u)].size = 0;
      }
      kernels::AggBatchRow& r = sc.mapped.rows[i];
      r.group = static_cast<uint32_t>(unit_of_run.size() - 1);
      entry->units[static_cast<size_t>(unit_of_run.back())].size +=
          r.mono.len + r.guard_mono.len;
    }
    sc.program.shape = kernels::BatchProgram::Shape::kAggregate;
    sc.program.kind = EvalResult::Kind::kVector;
    sc.program.agg = program_.agg;
    sc.program.fold = program_.fold;
    sc.program.groups = nullptr;
    sc.program.num_groups = unit_of_run.size();
    std::swap(sc.program.agg_rows, sc.mapped.rows);

    // The merged group's base preimage: base slots whose current image is
    // a root key, ascending.
    sc.merged_sources.clear();
    for (size_t b = 0; b < remap_.slot.size() && merged_unit >= 0; ++b) {
      if (std::binary_search(sc.key_slots.begin(), sc.key_slots.end(),
                             remap_.slot[b])) {
        sc.merged_sources.push_back(static_cast<uint32_t>(b));
      }
    }
    // Evaluate under this thread's copy of the step's blocks, whose row t
    // is φ of the roots' rows (t's members are the union of theirs).
    if (sc.step != step_) {
      sc.blocks.resize(in_.chunks.size());
      for (size_t c = 0; c < in_.chunks.size(); ++c) {
        sc.blocks[c] = in_.chunks[c].block;
      }
      sc.step = step_;
    }
    const PhiKind phi = state_.PhiFor(in_.registry->domain(t));
    for (size_t c = 0; c < in_.chunks.size(); ++c) {
      const DistanceOracle::PricingChunk& chunk = in_.chunks[c];
      const size_t stride = chunk.block.stride();
      uint8_t* row = sc.blocks[c].MutableRow(t);
      std::memset(row, phi == PhiKind::kOr ? 0x00 : 0xFF, stride);
      for (AnnotationId r : roots) {
        const uint8_t* rr = chunk.block.Row(r);
        for (size_t l = 0; l < stride; ++l) {
          row[l] = phi == PhiKind::kOr ? (row[l] | rr[l]) : (row[l] & rr[l]);
        }
      }
      kernels::EvaluateBlock(sc.program, sc.blocks[c], &sc.eval);
      for (size_t s = 0; s < unit_of_run.size(); ++s) {
        const size_t u = static_cast<size_t>(unit_of_run[s]);
        const double* bv;
        if (static_cast<int32_t>(u) == merged_unit) {
          kernels::FoldBaseSlots(program_.agg, *chunk.base,
                                 sc.merged_sources.data(),
                                 sc.merged_sources.size(), sc.base_value,
                                 sc.base_count);
          bv = sc.base_value;
        } else {
          const uint32_t g = sc.slot_of_unit[u];
          bv = identity ? chunk.base->values.data() + g * stride
                        : proj_.data() + lane_off_[c] * G + g * stride;
        }
        const double* cv = sc.eval.values.data() + s * stride;
        double* out = entry->terms.data() + entry->units[u].terms_off +
                      lane_off_[c];
        for (size_t l = 0; l < stride; ++l) out[l] = GroupTerm(vf, bv[l], cv[l]);
      }
    }
    std::swap(sc.program.agg_rows, sc.mapped.rows);
    *priced += unit_of_run.size();
  }

  // Size: the dirty groups' rows are replaced by the units' rows.
  int64_t size = size_;
  for (uint32_t g : sc.dirty) size -= group_size_[g];
  for (const PricingCache::Unit& u : entry->units) size += u.size;

  // Fold the per-group terms in the candidate's ascending group order:
  // the current keys the merge keeps, with t's merged group in place.
  double total = 0.0;
  for (size_t c = 0; c < in_.chunks.size(); ++c) {
    const DistanceOracle::PricingChunk& chunk = in_.chunks[c];
    const size_t stride = chunk.block.stride();
    const double* step_terms =
        (identity ? terms_id_.data() : terms_.data()) + lane_off_[c] * G;
    sc.terms.clear();
    bool merged_placed = merged_unit < 0;
    for (size_t g = 0; g < G; ++g) {
      if (!merged_placed && t < groups[g]) {
        sc.terms.push_back(entry->terms.data() +
                           entry->units[merged_unit].terms_off + lane_off_[c]);
        merged_placed = true;
      }
      if (std::binary_search(sc.key_slots.begin(), sc.key_slots.end(),
                             static_cast<uint32_t>(g))) {
        continue;
      }
      const int32_t u = sc.unit_of_slot[g];
      sc.terms.push_back(u < 0 ? step_terms + g * stride
                               : entry->terms.data() +
                                     entry->units[u].terms_off + lane_off_[c]);
    }
    if (!merged_placed) {
      sc.terms.push_back(entry->terms.data() +
                         entry->units[merged_unit].terms_off + lane_off_[c]);
    }
    double partial = 0.0;
    for (size_t l = 0; l < chunk.block.width(); ++l) {
      double err = 0.0;
      if (vf == kernels::ValFuncBatchKind::kDisagreement) {
        bool mismatch = false;
        for (const double* tj : sc.terms) mismatch |= tj[l] != 0.0;
        err = mismatch ? 1.0 : 0.0;
      } else {
        for (const double* tj : sc.terms) err += tj[l];
        if (vf == kernels::ValFuncBatchKind::kL2) err = std::sqrt(err);
      }
      partial += chunk.weights[l] * err;
    }
    total += partial;
  }
  price->distance = (total / in_.norm) / max_error_;
  price->size = size;
  return identity;
}

void DistanceOracle::PriceMerges(const ProvenanceExpression& current,
                                 const MappingState& state,
                                 const std::vector<MergeQuery>& merges,
                                 exec::ThreadPool* pool, PricingCache* cache,
                                 std::vector<MergePrice>* out) {
  out->assign(merges.size(), MergePrice{});
  const ir::IrAggregateExpression* agg = current.AsAggregate();
  PricingInputs in;
  if (agg != nullptr) {
    kernels::BatchProgram program = agg->LowerBatch();
    StepPricer pricer(*agg, state, max_error(), &in, cache);
    if (program.kind == EvalResult::Kind::kVector &&
        PreparePricing(state, &in) && pricer.Prepare(std::move(program))) {
      const DistanceMetrics& metrics = DistanceMetrics::Get();
      std::vector<PricingCache::Entry> entries(merges.size());
      std::atomic<uint64_t> priced{0};
      std::atomic<uint64_t> reused{0};
      exec::ParallelFor(
          pool, 0, static_cast<int64_t>(merges.size()), 1, [&](int64_t idx) {
            const size_t i = static_cast<size_t>(idx);
            Timer timer;
            uint64_t p = 0;
            uint64_t r = 0;
            CountPricedMerge(
                pricer.Price(merges[i], &(*out)[i], &entries[i], &p, &r));
            priced.fetch_add(p, std::memory_order_relaxed);
            reused.fetch_add(r, std::memory_order_relaxed);
            (*out)[i].nanos = timer.ElapsedNanos();
          });
      metrics.groups_priced->Increment(priced.load());
      metrics.groups_reused->Increment(reused.load());
      metrics.cache_evictions->Increment(cache->Commit(merges, &entries));
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
        tentative.Merge(*m.roots, m.scratch);
        Homomorphism h;
        for (AnnotationId root : *m.roots) h.Set(root, m.scratch);
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
  base_mats_.reserve(valuations_.size());
  for (const auto& v : valuations_) {
    base_mats_.emplace_back(v, n);
    base_evals_.push_back(p0_->Evaluate(base_mats_.back()));
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
          kReductionGrain, [&](int64_t lo, int64_t hi) {
            thread_local kernels::ValuationBlock block;
            thread_local kernels::BlockEval cand_eval;
            thread_local kernels::BlockEval projected;
            const size_t w = static_cast<size_t>(hi - lo);
            block.Reset(n, w);
            for (size_t l = 0; l < w; ++l) {
              state.TransformLane(valuations_[static_cast<size_t>(lo) + l],
                                  l, &block);
            }
            kernels::EvaluateBlock(program, block, &cand_eval);
            const kernels::BlockEval& orig = kernels::ProjectBlock(
                remap, program,
                base_blocks_[static_cast<size_t>(lo / kReductionGrain)],
                &projected);
            double err[kernels::kMaxLanes];
            kernels::ValFuncBlockErrors(vf_kind, penalty, orig, cand_eval,
                                        err);
            double partial = 0.0;
            for (size_t l = 0; l < w; ++l) {
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
        MaterializedValuation transformed =
            state.TransformFrom(v, base_mats_[static_cast<size_t>(i)], n);
        EvalResult summ = cand.Evaluate(transformed);
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

bool EnumeratedDistance::PreparePricing(const MappingState& state,
                                        PricingInputs* in) {
  in->vf_kind = val_func_->batch_kind();
  if (valuations_.empty() || in->vf_kind == kernels::ValFuncBatchKind::kNone ||
      !EnsureBaseBlocks()) {
    return false;
  }
  in->registry = registry_;
  in->base_kind = base_kind_;
  in->base_groups = &base_groups_;
  in->norm = total_weight_;
  const size_t n = registry_->size();
  const size_t count = valuations_.size();
  in->chunks.resize(base_blocks_.size());
  for (size_t c = 0; c < in->chunks.size(); ++c) {
    PricingChunk& chunk = in->chunks[c];
    const size_t lo = c * kReductionGrain;
    const size_t w = std::min(count - lo, size_t{kReductionGrain});
    chunk.block.Reset(n, w);
    for (size_t l = 0; l < w; ++l) {
      state.TransformLane(valuations_[lo + l], l, &chunk.block);
      chunk.weights[l] = valuations_[lo + l].weight();
    }
    chunk.base = &base_blocks_[c];
  }
  return true;
}

void EnumeratedDistance::CountPricedMerge(bool identity) {
  const DistanceMetrics& metrics = DistanceMetrics::Get();
  metrics.enumerated_calls->Increment();
  metrics.enumerated_evals->Increment(valuations_.size());
  kernels::CountBatchEvals(valuations_.size());
  if (identity) metrics.base_eval_reuse->Increment(valuations_.size());
}

int SampledDistance::RequiredSamples(double epsilon, double delta) {
  return static_cast<int>(
      std::ceil(std::log(2.0 / delta) / (2.0 * epsilon * epsilon)));
}

SampledDistance::SampledDistance(const ProvenanceExpression* p0,
                                 const AnnotationRegistry* registry,
                                 const ValFunc* val_func, Options options)
    : p0_(p0),
      registry_(registry),
      val_func_(val_func),
      options_(options),
      pool_(options.threads) {
  num_samples_ = options_.num_samples > 0
                     ? options_.num_samples
                     : RequiredSamples(options_.epsilon, options_.delta);
  p0_->CollectAnnotations(&annotations_);
  all_true_eval_ = p0_->Evaluate(MaterializedValuation(registry_->size()));
  max_error_ = val_func_->MaxError(all_true_eval_);
  if (max_error_ <= 0.0) max_error_ = 1.0;
  // Whether p₀'s batch lowering fits the all-true coordinate layout; its
  // structure is fixed for the oracle's lifetime.
  if (const kernels::BatchEvalFacade* base_facade = p0_->AsBatchEval()) {
    base_kind_ = all_true_eval_.kind();
    if (base_kind_ == EvalResult::Kind::kVector) {
      base_groups_.reserve(all_true_eval_.coords().size());
      for (const auto& c : all_true_eval_.coords()) {
        base_groups_.push_back(c.group);
      }
    }
    base_program_ok_ = kernels::ProgramMatchesLayout(
        base_facade->LowerBatch(), base_kind_, base_groups_.data(),
        base_groups_.size());
  }
}

double SampledDistance::Distance(const ProvenanceExpression& cand,
                                 const MappingState& state) {
  const DistanceMetrics& metrics = DistanceMetrics::Get();
  metrics.sampled_calls->Increment();
  metrics.samples->Increment(num_samples_);
  std::optional<obs::TraceSpan> oracle_span;
  if (!exec::InParallelWorker()) oracle_span.emplace("distance.oracle");
  const size_t n = registry_->size();
  // Batch path: both sides of each grain-16 sample chunk are evaluated by
  // the SIMD kernels, each through its own lowering, and the base side is
  // projected into the candidate's group slots as in the enumerated
  // oracle. Sample s's Rng stream is regenerated identically, so the
  // drawn valuations — and the resulting estimate — are bit-identical to
  // the scalar path at any tier and any thread count.
  const kernels::ValFuncBatchKind vf_kind = val_func_->batch_kind();
  const kernels::BatchEvalFacade* facade = cand.AsBatchEval();
  if (base_program_ok_ && facade != nullptr &&
      vf_kind != kernels::ValFuncBatchKind::kNone) {
    const kernels::BatchProgram program = facade->LowerBatch();
    kernels::GroupRemap remap;
    if (kernels::BuildGroupRemap(base_kind_, base_groups_.data(),
                                 base_groups_.size(), program,
                                 state.cumulative(), &remap)) {
      if (remap.identity()) {
        metrics.base_eval_reuse->Increment(num_samples_);
      }
      // Both sides are evaluated in batches: two per sample.
      kernels::CountBatchEvals(2 * static_cast<uint64_t>(num_samples_));
      const kernels::BatchProgram base_program =
          p0_->AsBatchEval()->LowerBatch();
      const double penalty = val_func_->batch_mismatch_penalty();
      const double total = exec::DeterministicChunkSum(
          pool_.pool(), num_samples_, kSampleGrain,
          [&](int64_t lo, int64_t hi) {
            thread_local kernels::ValuationBlock base_block;
            thread_local kernels::ValuationBlock trans_block;
            thread_local kernels::BlockEval base_eval;
            thread_local kernels::BlockEval cand_eval;
            thread_local kernels::BlockEval projected;
            const size_t w = static_cast<size_t>(hi - lo);
            base_block.Reset(n, w);
            trans_block.Reset(n, w);
            for (size_t l = 0; l < w; ++l) {
              const Valuation v = Sample(lo + static_cast<int64_t>(l));
              base_block.FillLaneSparse(l, v);
              state.TransformLane(v, l, &trans_block);
            }
            kernels::EvaluateBlock(base_program, base_block, &base_eval);
            kernels::EvaluateBlock(program, trans_block, &cand_eval);
            const kernels::BlockEval& orig =
                kernels::ProjectBlock(remap, program, base_eval, &projected);
            double err[kernels::kMaxLanes];
            kernels::ValFuncBlockErrors(vf_kind, penalty, orig, cand_eval,
                                        err);
            double partial = 0.0;
            for (size_t l = 0; l < w; ++l) partial += err[l];
            return partial;
          });
      return (total / num_samples_) / max_error_;
    }
  }
  kernels::CountScalarFallback();
  // Same identity-on-groups shortcut as the enumerated oracle: the group
  // keys of an evaluation are structural (they do not depend on which
  // annotations a valuation cancels), so the all-true evaluation decides
  // for every sample whether ProjectEvalResult is the identity.
  const bool identity_on_groups = IdentityOnGroups(all_true_eval_, state);
  if (identity_on_groups) {
    metrics.base_eval_reuse->Increment(num_samples_);
  }
  // Stream s of the seed drives sample s alone, so the estimate depends
  // only on (seed, num_samples) — not on thread count or sample order.
  const double total = exec::DeterministicSum(
      pool_.pool(), num_samples_, kSampleGrain, [&](int64_t s) {
        const Valuation v = Sample(s);
        EvalResult base = p0_->Evaluate(MaterializedValuation(v, n));
        MaterializedValuation transformed = state.Transform(v, n);
        EvalResult summ = cand.Evaluate(transformed);
        if (identity_on_groups) {
          return val_func_->Compute(base, summ);
        }
        EvalResult orig = cand.ProjectEvalResult(base, state.cumulative());
        return val_func_->Compute(orig, summ);
      });
  return (total / num_samples_) / max_error_;
}

Valuation SampledDistance::Sample(int64_t s) const {
  Rng rng(options_.seed, static_cast<uint64_t>(s));
  std::vector<AnnotationId> cancelled;
  for (AnnotationId a : annotations_) {
    if (rng.Bernoulli(0.5)) cancelled.push_back(a);
  }
  return Valuation(std::move(cancelled));
}

bool SampledDistance::PreparePricing(const MappingState& state,
                                     PricingInputs* in) {
  in->vf_kind = val_func_->batch_kind();
  if (!base_program_ok_ || num_samples_ <= 0 ||
      in->vf_kind == kernels::ValFuncBatchKind::kNone) {
    return false;
  }
  in->registry = registry_;
  in->base_kind = base_kind_;
  in->base_groups = &base_groups_;
  in->norm = num_samples_;
  const size_t n = registry_->size();
  const kernels::BatchProgram base_program = p0_->AsBatchEval()->LowerBatch();
  kernels::ValuationBlock base_block;
  in->chunks.resize(static_cast<size_t>(
      (num_samples_ + kSampleGrain - 1) / kSampleGrain));
  for (size_t c = 0; c < in->chunks.size(); ++c) {
    PricingChunk& chunk = in->chunks[c];
    const int64_t lo = static_cast<int64_t>(c) * kSampleGrain;
    const size_t w = static_cast<size_t>(
        std::min<int64_t>(num_samples_ - lo, kSampleGrain));
    base_block.Reset(n, w);
    chunk.block.Reset(n, w);
    for (size_t l = 0; l < w; ++l) {
      const Valuation v = Sample(lo + static_cast<int64_t>(l));
      base_block.FillLaneSparse(l, v);
      state.TransformLane(v, l, &chunk.block);
      chunk.weights[l] = 1.0;
    }
    kernels::EvaluateBlock(base_program, base_block, &chunk.owned_base);
    chunk.base = &chunk.owned_base;
  }
  return true;
}

void SampledDistance::CountPricedMerge(bool identity) {
  const DistanceMetrics& metrics = DistanceMetrics::Get();
  metrics.sampled_calls->Increment();
  metrics.samples->Increment(num_samples_);
  kernels::CountBatchEvals(2 * static_cast<uint64_t>(num_samples_));
  if (identity) metrics.base_eval_reuse->Increment(num_samples_);
}

}  // namespace prox
