#include "ir/agg_expr.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/str_util.h"
#include "exec/thread_pool.h"
#include "ir/metrics.h"
#include "provenance/guard.h"
#include "provenance/monomial.h"

namespace prox {
namespace ir {

namespace {

/// Truth of a guard row under a materialized valuation — same decision
/// sequence as Guard::Evaluate (body product, then the comparison).
bool GuardTrue(const PoolView& pv, GuardId id, const MaterializedValuation& v) {
  const GuardRow& g = pv.guard(id);
  const AnnotationId* f = pv.mono_data(g.mono);
  const uint32_t len = pv.mono_len(g.mono);
  bool body_true = true;
  for (uint32_t k = 0; k < len; ++k) {
    if (!v.truth(f[k])) {
      body_true = false;
      break;
    }
  }
  const double value = body_true ? g.scalar : 0.0;
  switch (g.op) {
    case CompareOp::kGt:
      return value > g.threshold;
    case CompareOp::kGe:
      return value >= g.threshold;
    case CompareOp::kLt:
      return value < g.threshold;
    case CompareOp::kLe:
      return value <= g.threshold;
    case CompareOp::kEq:
      return value == g.threshold;
    case CompareOp::kNe:
      return value != g.threshold;
  }
  return false;
}

/// A row's canonical sort key, read as spans: group, monomial content,
/// guard-less first, guard content (Monomial's and Guard's defaulted
/// `<=>`, the order PoolView::CompareMonomials/CompareGuards implement).
struct RowKey {
  AnnotationId group = kNoAnnotation;
  const AnnotationId* mono = nullptr;
  uint32_t mono_len = 0;
  bool has_guard = false;
  const AnnotationId* guard_mono = nullptr;
  uint32_t guard_len = 0;
  double scalar = 0.0;
  CompareOp op = CompareOp::kGt;
  double threshold = 0.0;
};

int CompareSpans(const AnnotationId* a, uint32_t la, const AnnotationId* b,
                 uint32_t lb) {
  const uint32_t n = la < lb ? la : lb;
  for (uint32_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  if (la != lb) return la < lb ? -1 : 1;
  return 0;
}

/// <0, 0, >0 under the canonical key order; 0 means the rows merge.
int CompareRowKeys(const RowKey& a, const RowKey& b) {
  if (a.group != b.group) return a.group < b.group ? -1 : 1;
  const int mc = CompareSpans(a.mono, a.mono_len, b.mono, b.mono_len);
  if (mc != 0) return mc;
  if (a.has_guard != b.has_guard) return a.has_guard ? 1 : -1;
  if (!a.has_guard) return 0;
  const int gc = CompareSpans(a.guard_mono, a.guard_len, b.guard_mono,
                              b.guard_len);
  if (gc != 0) return gc;
  if (a.scalar != b.scalar) return a.scalar < b.scalar ? -1 : 1;
  if (a.op != b.op) return a.op < b.op ? -1 : 1;
  if (a.threshold != b.threshold) return a.threshold < b.threshold ? -1 : 1;
  return 0;
}

RowKey KeyOfRow(const PoolView& pv, MonomialId mono, GuardId guard,
               AnnotationId group) {
  RowKey k;
  k.group = group;
  k.mono = pv.mono_data(mono);
  k.mono_len = pv.mono_len(mono);
  if (guard != kNoGuard) {
    const GuardRow& g = pv.guard(guard);
    k.has_guard = true;
    k.guard_mono = pv.mono_data(g.mono);
    k.guard_len = pv.mono_len(g.mono);
    k.scalar = g.scalar;
    k.op = g.op;
    k.threshold = g.threshold;
  }
  return k;
}

/// A moved row's key before the merge maps it: its canonical key and
/// whether its group key is a root (mapped to the target).
struct MovedKey {
  RowKey key;
  bool root_group = false;

  int64_t size() const { return int64_t{key.mono_len} + key.guard_len; }
};

/// True when the spans Apply maps `a` and `b` to are equal. Every root
/// maps to the one target and no factor is dropped, so that holds exactly
/// when the lengths and the non-root factors, in order, are equal.
template <typename IsRoot>
bool SameMappedSpan(const AnnotationId* a, uint32_t la, const AnnotationId* b,
                    uint32_t lb, const IsRoot& is_root) {
  if (la != lb) return false;
  if (a == b) return true;
  uint32_t i = 0;
  uint32_t j = 0;
  for (;;) {
    while (i < la && is_root(a[i])) ++i;
    while (j < lb && is_root(b[j])) ++j;
    if (i == la || j == lb) return i == la && j == lb;
    if (a[i] != b[j]) return false;
    ++i;
    ++j;
  }
}

/// CompareRowKeys(mapped a, mapped b) == 0, without mapping either: the
/// guard scalars and thresholds compare as doubles, so +0.0 equals -0.0.
template <typename IsRoot>
bool SameMappedKey(const MovedKey& a, const MovedKey& b,
                   const IsRoot& is_root) {
  if (a.root_group != b.root_group) return false;
  if (!a.root_group && a.key.group != b.key.group) return false;
  if (a.key.has_guard != b.key.has_guard) return false;
  if (a.key.has_guard &&
      (a.key.scalar != b.key.scalar || a.key.op != b.key.op ||
       a.key.threshold != b.key.threshold ||
       !SameMappedSpan(a.key.guard_mono, a.key.guard_len, b.key.guard_mono,
                       b.key.guard_len, is_root))) {
    return false;
  }
  return SameMappedSpan(a.key.mono, a.key.mono_len, b.key.mono,
                        b.key.mono_len, is_root);
}

/// FNV-1a over what SameMappedKey compares exactly, except the guard
/// scalar and threshold: equal doubles can differ in their bits (±0.0),
/// so they are left to the exact comparison.
template <typename IsRoot>
uint64_t MappedKeyHash(const MovedKey& k, const IsRoot& is_root) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ull;
  };
  auto mix_span = [&](const AnnotationId* f, uint32_t len) {
    mix(len);
    for (uint32_t i = 0; i < len; ++i) {
      if (!is_root(f[i])) mix(f[i]);
    }
  };
  mix(k.root_group ? 0 : uint64_t{k.key.group} + 1);
  mix_span(k.key.mono, k.key.mono_len);
  mix(k.key.has_guard);
  if (k.key.has_guard) {
    mix_span(k.key.guard_mono, k.key.guard_len);
    mix(static_cast<uint64_t>(k.key.op));
  }
  return h;
}

/// The kernel row of a canonical row, without its group slot.
kernels::AggBatchRow LoweredRow(AggKind agg, const RowKey& k, AggValue value) {
  kernels::AggBatchRow r;
  r.mono = kernels::MonoSpan{k.mono, k.mono_len};
  if (k.has_guard) {
    r.guard_mono = kernels::MonoSpan{k.guard_mono, k.guard_len};
    r.has_guard = 1;
    // GuardTrue's value is `scalar` when the body monomial holds and 0.0
    // otherwise, so the comparison folds to these two booleans.
    r.guard_if_true = kernels::EvalCompare(k.scalar, k.op, k.threshold);
    r.guard_if_false = kernels::EvalCompare(0.0, k.op, k.threshold);
  }
  r.contribution = (agg == AggKind::kCount) ? value.count : value.value;
  r.count_add = value.count;
  return r;
}

/// Visits rows in the canonical order: `emit(i)` for the first row of each
/// equal-keyed run, `merge(i)` for every later row of the run (the caller
/// folds it into the last emitted row). Ties break on the row index, so
/// the order is total: sorting any subset of rows yields the same relative
/// sequence as sorting all of them, and equal-keyed rows always merge in
/// source order. That is what lets step pricing re-canonicalize only the
/// rows a merge moves (summarize/distance.h) and still fold every float in
/// the order a full Apply would.
template <typename Emit, typename Merge>
void ForEachCanonicalRow(const std::vector<RowKey>& keys,
                         std::vector<uint32_t>* idx, Emit emit, Merge merge) {
  idx->resize(keys.size());
  std::iota(idx->begin(), idx->end(), 0u);
  std::sort(idx->begin(), idx->end(), [&](uint32_t a, uint32_t b) {
    const int c = CompareRowKeys(keys[a], keys[b]);
    return c != 0 ? c < 0 : a < b;
  });
  for (size_t k = 0; k < idx->size(); ++k) {
    const uint32_t i = (*idx)[k];
    if (k > 0 && CompareRowKeys(keys[(*idx)[k - 1]], keys[i]) == 0) {
      merge(i);
    } else {
      emit(i);
    }
  }
}

}  // namespace

void IrAggregateExpression::AddTermIds(MonomialId mono, GuardId guard,
                                       AnnotationId group, AggValue value) {
  mono_.push_back(mono);
  guard_.push_back(guard);
  group_.push_back(group);
  value_.push_back(value);
}

void IrAggregateExpression::AddTerm(const Monomial& mono, AnnotationId group,
                                    AggValue value,
                                    const std::optional<Guard>& guard) {
  const auto& f = mono.factors();
  const MonomialId mono_id = pool_->InternMonomial(f.data(), f.size());
  GuardId guard_id = kNoGuard;
  if (guard) {
    const auto& gf = guard->factors().factors();
    guard_id = pool_->InternGuard(pool_->InternMonomial(gf.data(), gf.size()),
                                  guard->scalar(), guard->op(),
                                  guard->threshold());
  }
  AddTermIds(mono_id, guard_id, group, value);
}

IrAggregateExpression::InternedRow IrAggregateExpression::InternRow(
    size_t i, TermPool* pool) const {
  const PoolView pv = view();
  InternedRow row;
  row.mono = pool->InternMonomial(pv.mono_data(mono_[i]),
                                  pv.mono_len(mono_[i]));
  if (guard_[i] != kNoGuard) {
    const GuardRow& g = pv.guard(guard_[i]);
    row.guard = pool->InternGuard(
        pool->InternMonomial(pv.mono_data(g.mono), pv.mono_len(g.mono)),
        g.scalar, g.op, g.threshold);
  }
  row.group = group_[i];
  row.value = value_[i];
  return row;
}

void IrAggregateExpression::Canonicalize() {
  const size_t n = mono_.size();
  const PoolView pv = view();
  std::vector<RowKey> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = KeyOfRow(pv, mono_[i], guard_[i], group_[i]);
  }

  std::vector<MonomialId> nm;
  std::vector<GuardId> ng;
  std::vector<AnnotationId> ngroup;
  std::vector<AggValue> nv;
  nm.reserve(n);
  ng.reserve(n);
  ngroup.reserve(n);
  nv.reserve(n);
  std::vector<uint32_t> idx;
  ForEachCanonicalRow(
      keys, &idx,
      [&](uint32_t i) {
        nm.push_back(mono_[i]);
        ng.push_back(guard_[i]);
        ngroup.push_back(group_[i]);
        nv.push_back(value_[i]);
      },
      [&](uint32_t i) { nv.back() = MergeAggValues(agg_, nv.back(), value_[i]); });
  mono_ = std::move(nm);
  guard_ = std::move(ng);
  group_ = std::move(ngroup);
  value_ = std::move(nv);

  RebuildDerived();
}

void IrAggregateExpression::CanonicalizeSorted() {
  const PoolView pv = view();
  // Strictly ascending keys: already sorted and no equal-keyed pair to
  // merge, so the sort+merge pass is a no-op.
  for (size_t i = 0; i + 1 < mono_.size(); ++i) {
    if (CompareRowKeys(KeyOfRow(pv, mono_[i], guard_[i], group_[i]),
                       KeyOfRow(pv, mono_[i + 1], guard_[i + 1],
                                group_[i + 1])) >= 0) {
      Canonicalize();
      return;
    }
  }
  RebuildDerived();
}

void IrAggregateExpression::RebuildDerived() {
  const PoolView pv = view();
  // Rows are group-sorted, so distinct groups are run starts.
  groups_.clear();
  group_dense_.clear();
  group_dense_.reserve(mono_.size());
  size_ = 0;
  for (size_t i = 0; i < mono_.size(); ++i) {
    if (groups_.empty() || groups_.back() != group_[i]) {
      groups_.push_back(group_[i]);
    }
    group_dense_.push_back(static_cast<uint32_t>(groups_.size() - 1));
    size_ += pv.mono_len(mono_[i]);
    if (guard_[i] != kNoGuard) size_ += pv.mono_len(pv.guard(guard_[i]).mono);
  }
}

int64_t IrAggregateExpression::Size() const {
  CountSizeCacheHit();
  return size_;
}

void IrAggregateExpression::CollectAnnotations(
    std::vector<AnnotationId>* out) const {
  const PoolView pv = view();
  for (size_t i = 0; i < mono_.size(); ++i) {
    const AnnotationId* f = pv.mono_data(mono_[i]);
    out->insert(out->end(), f, f + pv.mono_len(mono_[i]));
    if (guard_[i] != kNoGuard) {
      const GuardRow& g = pv.guard(guard_[i]);
      const AnnotationId* gf = pv.mono_data(g.mono);
      out->insert(out->end(), gf, gf + pv.mono_len(g.mono));
    }
    if (group_[i] != kNoAnnotation) out->push_back(group_[i]);
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

std::unique_ptr<ProvenanceExpression> IrAggregateExpression::Apply(
    const Homomorphism& h) const {
  const bool worker = exec::InParallelWorker();
  auto out = std::make_unique<IrAggregateExpression>(agg_, pool_);
  std::shared_ptr<TermPool> fresh;
  TermPool* target = pool_.get();
  if (worker) {
    fresh = std::make_shared<TermPool>();
    target = fresh.get();
  }
  const PoolView pv = view();

  // Per-Apply memos so each distinct source monomial / guard maps once.
  std::vector<MonomialId> mono_memo(pool_->num_monomials(), kInvalidMonomial);
  std::vector<MonomialId> mono_memo_ov(
      overlay_ ? overlay_->num_monomials() : 0, kInvalidMonomial);
  std::vector<GuardId> guard_memo(pool_->num_guards(), kInvalidMonomial);
  std::vector<GuardId> guard_memo_ov(overlay_ ? overlay_->num_guards() : 0,
                                     kInvalidMonomial);
  std::vector<AnnotationId> scratch;
  uint64_t shared_terms = 0;
  uint64_t rewritten_terms = 0;

  auto map_mono = [&](MonomialId src) -> MonomialId {
    MonomialId& slot = (src & kOverlayBit)
                           ? mono_memo_ov[src & ~kOverlayBit]
                           : mono_memo[src];
    if (slot != kInvalidMonomial) return slot;
    const AnnotationId* data = pv.mono_data(src);
    const uint32_t len = pv.mono_len(src);
    scratch.assign(data, data + len);
    bool changed = false;
    for (uint32_t i = 0; i < len; ++i) {
      const AnnotationId m = h.Map(scratch[i]);
      if (m != scratch[i]) {
        scratch[i] = m;
        changed = true;
      }
    }
    MonomialId dst;
    if (!changed && !(src & kOverlayBit)) {
      dst = src;  // untouched interned span: share it
    } else {
      if (changed) std::sort(scratch.begin(), scratch.end());
      dst = worker ? (target->AppendMonomial(scratch.data(), scratch.size()) |
                      kOverlayBit)
                   : target->InternMonomial(scratch.data(), scratch.size());
    }
    slot = dst;
    return dst;
  };

  auto map_guard = [&](GuardId src) -> GuardId {
    GuardId& slot = (src & kOverlayBit) ? guard_memo_ov[src & ~kOverlayBit]
                                        : guard_memo[src];
    if (slot != kInvalidMonomial) return slot;
    const GuardRow& g = pv.guard(src);
    const MonomialId gm = map_mono(g.mono);
    GuardId dst;
    if (gm == g.mono && !(src & kOverlayBit)) {
      dst = src;  // guard body untouched: keep the interned row
    } else if (worker) {
      dst = target->AppendGuard(gm, g.scalar, g.op, g.threshold) | kOverlayBit;
    } else {
      dst = target->InternGuard(gm, g.scalar, g.op, g.threshold);
    }
    slot = dst;
    return dst;
  };

  const size_t n = mono_.size();
  out->mono_.reserve(n);
  out->guard_.reserve(n);
  out->group_.reserve(n);
  out->value_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const MonomialId m = map_mono(mono_[i]);
    if (m == mono_[i]) {
      ++shared_terms;
    } else {
      ++rewritten_terms;
    }
    out->mono_.push_back(m);
    out->guard_.push_back(guard_[i] == kNoGuard ? kNoGuard
                                                : map_guard(guard_[i]));
    out->group_.push_back(h.Map(group_[i]));
    out->value_.push_back(value_[i]);
  }
  if (fresh && (fresh->num_monomials() > 0 || fresh->num_guards() > 0)) {
    out->overlay_ = std::move(fresh);
  }
  CountApplyTermShared(shared_terms);
  CountApplyTermRewritten(rewritten_terms);
  out->Canonicalize();
  return out;
}

EvalResult IrAggregateExpression::Evaluate(
    const MaterializedValuation& v) const {
  const PoolView pv = view();
  // One accumulation slot per distinct group (groups with no surviving
  // tensor evaluate to 0), folded in canonical row order, so the float
  // fold sequence per slot is fixed.
  struct Slot {
    double value = 0.0;
    double count = 0.0;
    bool seen = false;
  };
  std::vector<Slot> slots(groups_.size());
  for (size_t i = 0; i < mono_.size(); ++i) {
    const AnnotationId* f = pv.mono_data(mono_[i]);
    const uint32_t len = pv.mono_len(mono_[i]);
    bool alive = true;
    for (uint32_t k = 0; k < len; ++k) {
      if (!v.truth(f[k])) {
        alive = false;
        break;
      }
    }
    if (alive && guard_[i] != kNoGuard) alive = GuardTrue(pv, guard_[i], v);
    if (!alive) continue;
    Slot& slot = slots[group_dense_[i]];
    slot.value = FoldAggregate(agg_, slot.value, value_[i], !slot.seen);
    slot.count += value_[i].count;
    slot.seen = true;
  }
  auto finalize = [this](const Slot& slot) {
    if (agg_ != AggKind::kAvg) return slot.value;
    return slot.count > 0 ? slot.value / slot.count : 0.0;
  };
  if (groups_.size() == 1 && groups_[0] == kNoAnnotation) {
    return EvalResult::Scalar(finalize(slots[0]));
  }
  std::vector<EvalResult::Coord> coords;
  coords.reserve(groups_.size());
  for (size_t g = 0; g < groups_.size(); ++g) {
    coords.push_back(
        EvalResult::Coord{groups_[g], finalize(slots[g]), slots[g].count});
  }
  return EvalResult::Vector(std::move(coords));
}

kernels::BatchProgram IrAggregateExpression::LowerBatch() const {
  const PoolView pv = view();
  kernels::BatchProgram p;
  p.shape = kernels::BatchProgram::Shape::kAggregate;
  p.agg = agg_;
  switch (agg_) {
    case AggKind::kMax:
      p.fold = kernels::AggFold::kMax;
      break;
    case AggKind::kMin:
      p.fold = kernels::AggFold::kMin;
      break;
    case AggKind::kSum:
    case AggKind::kCount:
    case AggKind::kAvg:
      p.fold = kernels::AggFold::kAdd;
      break;
  }
  p.kind = (groups_.size() == 1 && groups_[0] == kNoAnnotation)
               ? EvalResult::Kind::kScalar
               : EvalResult::Kind::kVector;
  p.groups = groups_.data();
  p.num_groups = groups_.size();
  p.agg_rows.reserve(mono_.size());
  for (size_t i = 0; i < mono_.size(); ++i) {
    kernels::AggBatchRow r =
        LoweredRow(agg_, KeyOfRow(pv, mono_[i], guard_[i], group_[i]),
                   value_[i]);
    r.group = group_dense_[i];
    p.agg_rows.push_back(r);
  }
  return p;
}

void IrAggregateExpression::LowerMoved(const uint32_t* rows, size_t num_rows,
                                       const AnnotationId* roots,
                                       size_t num_roots, AnnotationId target,
                                       uint32_t begin, uint32_t end,
                                       MovedRows* out) const {
  const PoolView pv = view();
  auto is_root = [&](AnnotationId a) {
    return std::binary_search(roots, roots + num_roots, a);
  };
  // A monomial or guard body with a root is mapped into the arena and
  // re-sorted, as Apply's map_mono does; the others keep their pool spans.
  // Offsets only while the arena grows.
  std::vector<AnnotationId>& arena = out->arena;
  arena.clear();
  auto map_span = [&](const AnnotationId* f, uint32_t len) -> int64_t {
    if (std::none_of(f, f + len, is_root)) return -1;
    const size_t off = arena.size();
    for (uint32_t k = 0; k < len; ++k) {
      arena.push_back(is_root(f[k]) ? target : f[k]);
    }
    std::sort(arena.begin() + off, arena.end());
    return static_cast<int64_t>(off);
  };
  thread_local std::vector<RowKey> keys;
  thread_local std::vector<int64_t> offsets;
  keys.resize(num_rows);
  offsets.resize(2 * num_rows);
  for (size_t j = 0; j < num_rows; ++j) {
    RowKey& k = keys[j];
    k = KeyOfRow(pv, mono_[rows[j]], guard_[rows[j]], group_[rows[j]]);
    offsets[2 * j] = map_span(k.mono, k.mono_len);
    offsets[2 * j + 1] = k.has_guard ? map_span(k.guard_mono, k.guard_len) : -1;
  }
  for (size_t j = 0; j < num_rows; ++j) {
    RowKey& k = keys[j];
    if (is_root(k.group)) k.group = target;
    if (offsets[2 * j] >= 0) k.mono = arena.data() + offsets[2 * j];
    if (offsets[2 * j + 1] >= 0) {
      k.guard_mono = arena.data() + offsets[2 * j + 1];
    }
  }
  thread_local std::vector<std::pair<uint32_t, AggValue>> merged;
  thread_local std::vector<uint32_t> idx;
  merged.clear();
  if (num_rows == 1) {
    merged.emplace_back(0, value_[rows[0]]);  // nothing to sort or merge
  } else {
    ForEachCanonicalRow(
        keys, &idx,
        [&](uint32_t j) { merged.emplace_back(j, value_[rows[j]]); },
        [&](uint32_t j) {
          merged.back().second =
              MergeAggValues(agg_, merged.back().second, value_[rows[j]]);
        });
  }
  out->rows.clear();
  out->before.clear();
  // Rows come out ascending, so each search starts where the last ended.
  uint32_t lo = begin;
  for (const auto& [j, value] : merged) {
    out->rows.push_back(LoweredRow(agg_, keys[j], value));
    uint32_t hi = end;
    while (lo < hi) {
      const uint32_t mid = lo + (hi - lo) / 2;
      if (CompareRowKeys(KeyOfRow(pv, mono_[mid], guard_[mid], group_[mid]),
                         keys[j]) <= 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    out->before.push_back(lo);
  }
}

int64_t IrAggregateExpression::MovedSize(const uint32_t* rows,
                                         size_t num_rows,
                                         const AnnotationId* roots,
                                         size_t num_roots) const {
  const PoolView pv = view();
  auto is_root = [&](AnnotationId a) {
    return std::binary_search(roots, roots + num_roots, a);
  };
  auto key_of = [&](uint32_t r) {
    MovedKey k;
    k.key = KeyOfRow(pv, mono_[r], guard_[r], group_[r]);
    k.root_group = is_root(group_[r]);
    return k;
  };
  // One row merges with nothing, and two need one comparison.
  if (num_rows == 0) return 0;
  if (num_rows == 1) return key_of(rows[0]).size();
  if (num_rows == 2) {
    const MovedKey a = key_of(rows[0]);
    const MovedKey b = key_of(rows[1]);
    return a.size() + (SameMappedKey(a, b, is_root) ? 0 : b.size());
  }
  // Rows of equal hash are compared exactly; a row that equals an earlier
  // one merges into it (equality is transitive, so which earlier row does
  // not matter).
  thread_local std::vector<MovedKey> keys;
  thread_local std::vector<std::pair<uint64_t, uint32_t>> hashed;
  keys.resize(num_rows);
  hashed.resize(num_rows);
  int64_t size = 0;
  for (size_t j = 0; j < num_rows; ++j) {
    keys[j] = key_of(rows[j]);
    size += keys[j].size();
    hashed[j] = {MappedKeyHash(keys[j], is_root), static_cast<uint32_t>(j)};
  }
  std::sort(hashed.begin(), hashed.end());
  for (size_t lo = 0; lo < num_rows;) {
    size_t hi = lo + 1;
    while (hi < num_rows && hashed[hi].first == hashed[lo].first) ++hi;
    for (size_t k = lo + 1; k < hi; ++k) {
      const MovedKey& row = keys[hashed[k].second];
      for (size_t p = lo; p < k; ++p) {
        if (SameMappedKey(keys[hashed[p].second], row, is_root)) {
          size -= row.size();
          break;
        }
      }
    }
    lo = hi;
  }
  return size;
}

std::unique_ptr<ProvenanceExpression> IrAggregateExpression::Clone() const {
  return std::make_unique<IrAggregateExpression>(*this);
}

std::string IrAggregateExpression::ToString(
    const AnnotationRegistry& registry) const {
  if (mono_.empty()) return "0";
  const PoolView pv = view();
  std::string out;
  for (size_t i = 0; i < mono_.size(); ++i) {
    if (i > 0) out += " ⊕ ";
    out += MonomialFromSpan(pv.mono_data(mono_[i]), pv.mono_len(mono_[i]))
               .ToString(registry);
    if (guard_[i] != kNoGuard) {
      const GuardRow& g = pv.guard(guard_[i]);
      const Guard gu(MonomialFromSpan(pv.mono_data(g.mono),
                                      pv.mono_len(g.mono)),
                     g.scalar, g.op, g.threshold);
      out += "·";
      out += gu.ToString(registry);
    }
    out += " ⊗ (";
    out += FormatDouble(value_[i].value, 1);
    out += ", ";
    out += FormatDouble(value_[i].count, 0);
    out += ")";
  }
  return out;
}

AggTermView IrAggregateExpression::term(size_t i) const {
  const PoolView pv = view();
  AggTermView view;
  view.mono = pv.mono_data(mono_[i]);
  view.mono_len = pv.mono_len(mono_[i]);
  view.group = group_[i];
  view.value = value_[i];
  if (guard_[i] != kNoGuard) {
    const GuardRow& g = pv.guard(guard_[i]);
    view.has_guard = true;
    view.guard_mono = pv.mono_data(g.mono);
    view.guard_len = pv.mono_len(g.mono);
    view.guard_scalar = g.scalar;
    view.guard_op = g.op;
    view.guard_threshold = g.threshold;
  }
  return view;
}

}  // namespace ir
}  // namespace prox
