#ifndef PROX_KERNELS_KERNELS_IMPL_H_
#define PROX_KERNELS_KERNELS_IMPL_H_

#include <cstring>
#include <vector>

#include "kernels/batch_eval.h"

/// \file
/// Shared batch-kernel templates, instantiated once per SIMD tier by the
/// kernels_{scalar,sse42,avx2}.cc translation units against their Ops
/// policy. An Ops policy provides:
///
///   kLanes               — doubles per vector (1 / 2 / 4)
///   VecD / MaskD         — vector / comparison-mask types
///   Load, Store, Broadcast
///   Add, Sub, Mul, Div, Sqrt, Abs
///   CmpLT, CmpEQ         — ordered, quiet (NaN compares false, like the
///                          scalar <, == they replace)
///   MaskFromBytes        — widen 0xFF/0x00 lane bytes to a lane mask
///   MaskAnd, MaskOr, MaskNot, MaskTrue
///   Select(m, a, b)      — per lane: m ? a : b (bitwise blend; all masks
///                          here are all-ones/all-zeros, never partial)
///
/// Bit-identity contract: every lane's arithmetic below is the exact
/// operation sequence of the scalar evaluators (FoldAggregate,
/// IrDdpExpression::Evaluate, the VAL-FUNC Compute methods) — Select
/// keeps the *old* accumulator bits on dead lanes (a masked add would
/// flip -0.0 to +0.0), max/min are expressed as the same compare+select
/// std::max/std::min lower to, and divisions/sqrt are the IEEE
/// correctly-rounded instructions. No FMA: these TUs pass -mno-fma so
/// mul+add never contracts.

namespace prox {
namespace kernels {
namespace internal {

inline uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline void StoreU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, 8); }

static_assert(kMaxLanes == 8, "one uint64 holds a block row's lane bytes");

/// Lane-liveness of a monomial: the AND over its factor rows (0xFF/0x00
/// bytes, one uint64 per row). Factors at or beyond the block's annotation
/// count are default-true and skipped; factor `sub` reads `sub_mask`
/// instead of its row. Early-outs once every lane is dead — the batch
/// analogue of the scalar evaluators' `break` on a false factor.
inline uint64_t MonoMask(const ValuationBlock& block, const MonoSpan& mono,
                         AnnotationId sub = kNoAnnotation,
                         uint64_t sub_mask = 0) {
  const size_t n = block.num_annotations();
  uint64_t live = ~0ull;
  for (uint32_t k = 0; k < mono.len; ++k) {
    const AnnotationId f = mono.data[k];
    if (f == sub) {
      live &= sub_mask;
    } else if (f < n) {
      live &= LoadU64(block.Row(f));
    }
    if (live == 0) break;
  }
  return live;
}

/// An AggBatchRow's liveness: its monomial's, then its guard. The guard
/// value is `scalar` when the guard monomial holds and 0.0 otherwise, so
/// the comparison collapses to two precomputed booleans and the mask
/// update is pure byte arithmetic.
inline uint64_t RowMask(const ValuationBlock& block, const AggBatchRow& r,
                        AnnotationId sub, uint64_t sub_mask) {
  uint64_t live = MonoMask(block, r.mono, sub, sub_mask);
  if (r.has_guard && live != 0) {
    const uint64_t b = MonoMask(block, r.guard_mono, sub, sub_mask);
    const uint64_t t = r.guard_if_true ? ~0ull : 0ull;
    const uint64_t f = r.guard_if_false ? ~0ull : 0ull;
    live &= (b & t) | (~b & f);
  }
  return live;
}

/// FoldAggRows: row i folds into acc[rows[i].group] on the lanes of
/// masks[i].
template <typename Ops>
void FoldAggRowsImpl(AggFold fold, const AggBatchRow* rows,
                     const uint64_t* masks, size_t n, AggAccumulator* acc) {
  for (size_t i = 0; i < n; ++i) {
    if (masks[i] == 0) continue;
    const AggBatchRow& r = rows[i];
    AggAccumulator& a = acc[r.group];
    const uint8_t* alive = reinterpret_cast<const uint8_t*>(masks + i);
    const uint8_t* sn = reinterpret_cast<const uint8_t*>(&a.seen);
    const typename Ops::VecD contrib = Ops::Broadcast(r.contribution);
    const typename Ops::VecD count_add = Ops::Broadcast(r.count_add);
    for (size_t l = 0; l < kMaxLanes; l += Ops::kLanes) {
      const typename Ops::MaskD m = Ops::MaskFromBytes(alive + l);
      const typename Ops::MaskD s = Ops::MaskFromBytes(sn + l);
      const typename Ops::VecD acc_v = Ops::Load(a.value + l);
      typename Ops::VecD folded = contrib;
      switch (fold) {
        case AggFold::kAdd:
          folded = Ops::Add(acc_v, contrib);
          break;
        case AggFold::kMax:
          // std::max(acc, c) == (acc < c) ? c : acc, bit for bit.
          folded = Ops::Select(Ops::CmpLT(acc_v, contrib), contrib, acc_v);
          break;
        case AggFold::kMin:
          folded = Ops::Select(Ops::CmpLT(contrib, acc_v), contrib, acc_v);
          break;
      }
      // First live contribution replaces the accumulator; later ones fold.
      const typename Ops::VecD next = Ops::Select(s, folded, contrib);
      Ops::Store(a.value + l, Ops::Select(m, next, acc_v));
      const typename Ops::VecD cv = Ops::Load(a.count + l);
      Ops::Store(a.count + l, Ops::Select(m, Ops::Add(cv, count_add), cv));
    }
    a.seen |= masks[i];
  }
}

template <typename Ops>
void EvalAggImpl(const BatchProgram& p, const ValuationBlock& block,
                 BlockEval* out) {
  out->kind = p.kind;
  out->width = block.width();
  out->groups = p.groups;
  out->num_groups = p.num_groups;
  out->values.resize(p.num_groups * kMaxLanes);
  out->counts.resize(p.num_groups * kMaxLanes);
  out->costs.clear();

  static thread_local std::vector<uint64_t> masks;
  static thread_local std::vector<AggAccumulator> acc;
  masks.resize(p.agg_rows.size());
  for (size_t i = 0; i < p.agg_rows.size(); ++i) {
    masks[i] = RowMask(block, p.agg_rows[i], kNoAnnotation, 0);
  }
  acc.assign(p.num_groups, AggAccumulator{});
  FoldAggRowsImpl<Ops>(p.fold, p.agg_rows.data(), masks.data(),
                       p.agg_rows.size(), acc.data());
  for (size_t g = 0; g < p.num_groups; ++g) {
    FinishAgg(p.agg, acc[g], out->values.data() + g * kMaxLanes);
    std::memcpy(out->counts.data() + g * kMaxLanes, acc[g].count,
                sizeof(acc[g].count));
  }
}

template <typename Ops>
void EvalDdpImpl(const BatchProgram& p, const ValuationBlock& block,
                 BlockEval* out) {
  static constexpr uint8_t kAllTrue[kMaxLanes] = {
      0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  const size_t n = block.num_annotations();
  out->kind = EvalResult::Kind::kCostBool;
  out->width = block.width();
  out->groups = nullptr;
  out->num_groups = 0;
  out->values.clear();
  out->counts.clear();
  out->costs.assign(kMaxLanes, 0.0);
  out->feasible.fill(0);

  alignas(16) uint8_t any[kMaxLanes] = {0};
  alignas(32) double best[kMaxLanes] = {0};
  alignas(32) double cost[kMaxLanes];
  alignas(16) uint8_t feas[kMaxLanes];
  alignas(16) uint8_t prod[kMaxLanes];

  const size_t num_exec = p.ddp_exec_off.empty() ? 0 : p.ddp_exec_off.size() - 1;
  for (size_t e = 0; e < num_exec; ++e) {
    for (size_t l = 0; l < kMaxLanes; ++l) cost[l] = 0.0;
    StoreU64(feas, ~0ull);

    for (uint32_t i = p.ddp_exec_off[e]; i < p.ddp_exec_off[e + 1]; ++i) {
      const DdpBatchRow& r = p.ddp_rows[i];
      if (r.user) {
        // cost += lane's cost-variable truth ? cost : 0 — same add the
        // scalar walk performs, skipped (old bits kept) on false lanes.
        const uint8_t* row = r.cost_var < n ? block.Row(r.cost_var) : kAllTrue;
        const typename Ops::VecD c = Ops::Broadcast(r.cost);
        for (size_t l = 0; l < kMaxLanes; l += Ops::kLanes) {
          const typename Ops::MaskD m = Ops::MaskFromBytes(row + l);
          const typename Ops::VecD cv = Ops::Load(cost + l);
          Ops::Store(cost + l, Ops::Select(m, Ops::Add(cv, c), cv));
        }
      } else {
        StoreU64(prod, MonoMask(block, r.db));
        // Feasible iff the db monomial matches its required sign. The
        // scalar walk breaks on the first mismatch; the lanes that
        // mismatch keep accumulating cost here, but their cost is never
        // selected, so results agree bit for bit.
        const uint64_t live = LoadU64(prod);
        StoreU64(feas, LoadU64(feas) & (r.nonzero ? live : ~live));
      }
    }

    // best = first feasible execution's cost, then min-by-< in execution
    // order — exactly the scalar `!any || cost < best` update.
    for (size_t l = 0; l < kMaxLanes; l += Ops::kLanes) {
      const typename Ops::MaskD fm = Ops::MaskFromBytes(feas + l);
      const typename Ops::MaskD am = Ops::MaskFromBytes(any + l);
      const typename Ops::VecD cv = Ops::Load(cost + l);
      const typename Ops::VecD bv = Ops::Load(best + l);
      const typename Ops::MaskD take = Ops::MaskAnd(
          fm, Ops::MaskOr(Ops::MaskNot(am), Ops::CmpLT(cv, bv)));
      Ops::Store(best + l, Ops::Select(take, cv, bv));
    }
    StoreU64(any, LoadU64(any) | LoadU64(feas));
  }

  for (size_t l = 0; l < kMaxLanes; ++l) {
    out->costs[l] = any[l] ? best[l] : 0.0;
    out->feasible[l] = any[l];
  }
}

/// Polynomial counting is pure integer arithmetic — identical on every
/// tier, so a single portable body serves all three entry points.
inline void EvalPolyPortable(const BatchProgram& p, const ValuationBlock& block,
                             BlockEval* out) {
  out->kind = EvalResult::Kind::kScalar;
  out->width = block.width();
  out->groups = nullptr;
  out->num_groups = 0;
  out->counts.clear();
  out->costs.clear();

  uint64_t sums[kMaxLanes] = {0};
  alignas(16) uint8_t alive[kMaxLanes];
  for (const PolyBatchRow& r : p.poly_rows) {
    StoreU64(alive, MonoMask(block, r.mono));
    for (size_t l = 0; l < kMaxLanes; ++l) {
      if (alive[l]) sums[l] += r.coeff;
    }
  }
  out->values.assign(kMaxLanes, 0.0);
  for (size_t l = 0; l < kMaxLanes; ++l) {
    out->values[l] = static_cast<double>(sums[l]);
  }
}

template <typename Ops>
void EvalBatchImpl(const BatchProgram& p, const ValuationBlock& block,
                   BlockEval* out) {
  switch (p.shape) {
    case BatchProgram::Shape::kAggregate:
      EvalAggImpl<Ops>(p, block, out);
      break;
    case BatchProgram::Shape::kDdp:
      EvalDdpImpl<Ops>(p, block, out);
      break;
    case BatchProgram::Shape::kPolynomial:
      EvalPolyPortable(p, block, out);
      break;
  }
}

template <typename Ops>
void ValFuncErrorsImpl(ValFuncBatchKind kind, double ddp_max_error,
                       const BlockEval& base, const BlockEval& cand,
                       double* err) {
  const typename Ops::VecD zero = Ops::Broadcast(0.0);
  const typename Ops::VecD one = Ops::Broadcast(1.0);

  switch (kind) {
    case ValFuncBatchKind::kL1:
    case ValFuncBatchKind::kL2: {
      if (cand.kind == EvalResult::Kind::kScalar) {
        // Both VAL-FUNCs degenerate to |a - b| on scalars (Euclidean's
        // scalar branch is the plain absolute difference, not sqrt(d²)).
        for (size_t l = 0; l < kMaxLanes; l += Ops::kLanes) {
          const typename Ops::VecD d = Ops::Sub(Ops::Load(base.values.data() + l),
                                                Ops::Load(cand.values.data() + l));
          Ops::Store(err + l, Ops::Abs(d));
        }
        break;
      }
      // Vector: fold groups in ascending order, per lane — the exact
      // ForEachCoordPair order (both sides share the sorted group array).
      for (size_t l = 0; l < kMaxLanes; l += Ops::kLanes) {
        Ops::Store(err + l, zero);
      }
      for (size_t g = 0; g < cand.num_groups; ++g) {
        const double* b = base.values.data() + g * kMaxLanes;
        const double* c = cand.values.data() + g * kMaxLanes;
        for (size_t l = 0; l < kMaxLanes; l += Ops::kLanes) {
          const typename Ops::VecD d = Ops::Sub(Ops::Load(b + l), Ops::Load(c + l));
          const typename Ops::VecD e = Ops::Load(err + l);
          Ops::Store(err + l,
                     kind == ValFuncBatchKind::kL1
                         ? Ops::Add(e, Ops::Abs(d))
                         : Ops::Add(e, Ops::Mul(d, d)));
        }
      }
      if (kind == ValFuncBatchKind::kL2) {
        for (size_t l = 0; l < kMaxLanes; l += Ops::kLanes) {
          Ops::Store(err + l, Ops::Sqrt(Ops::Load(err + l)));
        }
      }
      break;
    }
    case ValFuncBatchKind::kDisagreement: {
      if (cand.kind == EvalResult::Kind::kScalar) {
        for (size_t l = 0; l < kMaxLanes; l += Ops::kLanes) {
          const typename Ops::MaskD eq = Ops::CmpEQ(
              Ops::Load(base.values.data() + l), Ops::Load(cand.values.data() + l));
          Ops::Store(err + l, Ops::Select(eq, zero, one));
        }
      } else if (cand.kind == EvalResult::Kind::kVector) {
        for (size_t l = 0; l < kMaxLanes; l += Ops::kLanes) {
          typename Ops::MaskD eq = Ops::MaskTrue();
          for (size_t g = 0; g < cand.num_groups; ++g) {
            const size_t i = g * kMaxLanes + l;
            eq = Ops::MaskAnd(eq,
                              Ops::CmpEQ(Ops::Load(base.values.data() + i),
                                         Ops::Load(cand.values.data() + i)));
          }
          Ops::Store(err + l, Ops::Select(eq, zero, one));
        }
      } else {  // kCostBool: equal iff same scalar cost and same feasibility.
        alignas(16) uint8_t feq[kMaxLanes];
        StoreU64(feq, ~(LoadU64(base.feasible.data()) ^
                        LoadU64(cand.feasible.data())));
        for (size_t l = 0; l < kMaxLanes; l += Ops::kLanes) {
          const typename Ops::MaskD eq = Ops::MaskAnd(
              Ops::CmpEQ(Ops::Load(base.costs.data() + l),
                         Ops::Load(cand.costs.data() + l)),
              Ops::MaskFromBytes(feq + l));
          Ops::Store(err + l, Ops::Select(eq, zero, one));
        }
      }
      break;
    }
    case ValFuncBatchKind::kDdp: {
      const typename Ops::VecD maxe = Ops::Broadcast(ddp_max_error);
      for (size_t l = 0; l < kMaxLanes; l += Ops::kLanes) {
        const typename Ops::MaskD bf = Ops::MaskFromBytes(base.feasible.data() + l);
        const typename Ops::MaskD cf = Ops::MaskFromBytes(cand.feasible.data() + l);
        const typename Ops::VecD diff =
            Ops::Abs(Ops::Sub(Ops::Load(base.costs.data() + l),
                              Ops::Load(cand.costs.data() + l)));
        const typename Ops::MaskD both = Ops::MaskAnd(bf, cf);
        const typename Ops::MaskD neither =
            Ops::MaskAnd(Ops::MaskNot(bf), Ops::MaskNot(cf));
        Ops::Store(err + l,
                   Ops::Select(both, diff, Ops::Select(neither, zero, maxe)));
      }
      break;
    }
  }
}

}  // namespace internal
}  // namespace kernels
}  // namespace prox

#endif  // PROX_KERNELS_KERNELS_IMPL_H_
