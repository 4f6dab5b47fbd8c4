#include "kernels/batch_eval.h"

#include <algorithm>
#include <utility>

#include "common/cpu_features.h"
#include "kernels/kernels_impl.h"
#include "kernels/metrics.h"
#include "kernels/tier_entry.h"

namespace prox {
namespace kernels {

EvalResult BlockEval::Extract(size_t lane) const {
  switch (kind) {
    case EvalResult::Kind::kScalar:
      return EvalResult::Scalar(values[lane]);
    case EvalResult::Kind::kVector: {
      std::vector<EvalResult::Coord> coords;
      coords.reserve(num_groups);
      for (size_t g = 0; g < num_groups; ++g) {
        const size_t i = g * kMaxLanes + lane;
        coords.push_back(EvalResult::Coord{groups[g], values[i], counts[i]});
      }
      return EvalResult::Vector(std::move(coords));
    }
    case EvalResult::Kind::kCostBool:
      return EvalResult::CostBool(costs[lane], feasible[lane] != 0);
  }
  return EvalResult::Scalar(0.0);
}

namespace {

/// The tier a kernel call dispatches to, published as `prox_simd_tier`.
common::SimdTier DispatchTier() {
  const common::SimdTier tier = common::ActiveSimdTier();
  PublishSimdTier(static_cast<int>(tier));
  return tier;
}

}  // namespace

void EvaluateBlock(const BatchProgram& program, const ValuationBlock& block,
                   BlockEval* out) {
  switch (DispatchTier()) {
    case common::SimdTier::kAvx2:
      internal::EvalBatchAvx2(program, block, out);
      break;
    case common::SimdTier::kSse42:
      internal::EvalBatchSse42(program, block, out);
      break;
    case common::SimdTier::kScalar:
      internal::EvalBatchScalar(program, block, out);
      break;
  }
}

uint64_t AggRowMask(const ValuationBlock& block, const AggBatchRow& r,
                    AnnotationId sub, uint64_t sub_mask) {
  return internal::RowMask(block, r, sub, sub_mask);
}

void FoldAggRows(AggFold fold, const AggBatchRow* rows, const uint64_t* masks,
                 size_t n, AggAccumulator* acc) {
  switch (DispatchTier()) {
    case common::SimdTier::kAvx2:
      internal::FoldAggRowsAvx2(fold, rows, masks, n, acc);
      break;
    case common::SimdTier::kSse42:
      internal::FoldAggRowsSse42(fold, rows, masks, n, acc);
      break;
    case common::SimdTier::kScalar:
      internal::FoldAggRowsScalar(fold, rows, masks, n, acc);
      break;
  }
}

void ValFuncBlockErrors(ValFuncBatchKind kind, double ddp_max_error,
                        const BlockEval& base, const BlockEval& cand,
                        double* err) {
  switch (common::ActiveSimdTier()) {
    case common::SimdTier::kAvx2:
      internal::ValFuncErrorsAvx2(kind, ddp_max_error, base, cand, err);
      break;
    case common::SimdTier::kSse42:
      internal::ValFuncErrorsSse42(kind, ddp_max_error, base, cand, err);
      break;
    case common::SimdTier::kScalar:
      internal::ValFuncErrorsScalar(kind, ddp_max_error, base, cand, err);
      break;
  }
}

bool EvalMatchesLayout(const EvalResult& e, EvalResult::Kind kind,
                       const AnnotationId* groups, size_t num_groups) {
  if (e.kind() != kind) return false;
  if (kind != EvalResult::Kind::kVector) return true;
  const std::vector<EvalResult::Coord>& coords = e.coords();
  if (coords.size() != num_groups) return false;
  for (size_t g = 0; g < num_groups; ++g) {
    if (coords[g].group != groups[g]) return false;
  }
  return true;
}

bool PackEvalBlock(const EvalResult* evals, size_t count,
                   EvalResult::Kind kind, const AnnotationId* groups,
                   size_t num_groups, BlockEval* out) {
  if (count > kMaxLanes) return false;
  out->kind = kind;
  out->width = count;
  out->feasible.fill(0);
  if (kind == EvalResult::Kind::kVector) {
    out->groups = groups;
    out->num_groups = num_groups;
    out->values.assign(num_groups * kMaxLanes, 0.0);
    out->counts.assign(num_groups * kMaxLanes, 0.0);
    out->costs.clear();
  } else {
    out->groups = nullptr;
    out->num_groups = 0;
    out->values.assign(kind == EvalResult::Kind::kScalar ? kMaxLanes : 0, 0.0);
    out->counts.clear();
    out->costs.assign(kind == EvalResult::Kind::kCostBool ? kMaxLanes : 0, 0.0);
  }
  for (size_t i = 0; i < count; ++i) {
    const EvalResult& e = evals[i];
    if (!EvalMatchesLayout(e, kind, groups, num_groups)) return false;
    switch (kind) {
      case EvalResult::Kind::kScalar:
        out->values[i] = e.scalar();
        break;
      case EvalResult::Kind::kVector: {
        const std::vector<EvalResult::Coord>& coords = e.coords();
        for (size_t g = 0; g < num_groups; ++g) {
          out->values[g * kMaxLanes + i] = coords[g].value;
          out->counts[g * kMaxLanes + i] = coords[g].count;
        }
        break;
      }
      case EvalResult::Kind::kCostBool:
        out->costs[i] = e.cost();
        out->feasible[i] = e.feasible() ? 0xFF : 0x00;
        break;
    }
  }
  return true;
}

bool BuildGroupRemap(EvalResult::Kind kind, const AnnotationId* groups,
                     size_t num_groups, const BatchProgram& program,
                     const Homomorphism& h, GroupRemap* out) {
  out->is_identity = true;
  out->slot.clear();
  out->src_off.clear();
  out->src.clear();
  if (program.kind != kind) return false;
  if (kind != EvalResult::Kind::kVector) return true;
  const AnnotationId* first = program.groups;
  const AnnotationId* last = program.groups + program.num_groups;
  out->slot.resize(num_groups);
  out->src_off.assign(program.num_groups + 1, 0);
  for (size_t g = 0; g < num_groups; ++g) {
    const AnnotationId image = h.Map(groups[g]);
    out->is_identity = out->is_identity && image == groups[g];
    const AnnotationId* it = std::lower_bound(first, last, image);
    if (it == last || *it != image) return false;
    out->slot[g] = static_cast<uint32_t>(it - first);
    ++out->src_off[out->slot[g] + 1];
  }
  // Each program slot's preimage, ascending (a counting sort of `slot`).
  for (size_t t = 0; t < program.num_groups; ++t) {
    if (out->src_off[t + 1] == 0) return false;  // no base group maps here
    out->src_off[t + 1] += out->src_off[t];
  }
  out->src.resize(num_groups);
  std::vector<uint32_t> fill(out->src_off.begin(), out->src_off.end() - 1);
  for (size_t g = 0; g < num_groups; ++g) {
    out->src[fill[out->slot[g]]++] = static_cast<uint32_t>(g);
  }
  return true;
}

void FoldBaseSlots(AggKind agg, const BlockEval& base, const uint32_t* slots,
                   size_t num_slots, double* value, double* count) {
  for (size_t l = 0; l < kMaxLanes; ++l) {
    value[l] = 0.0;
    count[l] = 0.0;
  }
  for (size_t k = 0; k < num_slots; ++k) {
    const double* bv = base.values.data() + slots[k] * kMaxLanes;
    const double* bc = base.counts.data() + slots[k] * kMaxLanes;
    if (agg == AggKind::kAvg) {
      // Coordinates carry averages; merge as count-weighted sums.
      for (size_t l = 0; l < kMaxLanes; ++l) {
        value[l] += bv[l] * bc[l];
        count[l] += bc[l];
      }
    } else {
      for (size_t l = 0; l < kMaxLanes; ++l) {
        const AggValue x{bv[l], agg == AggKind::kCount ? bv[l] : 0.0};
        value[l] = FoldAggregate(agg, value[l], x, k == 0);
      }
    }
  }
  if (agg == AggKind::kAvg) {
    for (size_t l = 0; l < kMaxLanes; ++l) {
      value[l] = count[l] > 0 ? value[l] / count[l] : 0.0;
    }
  }
}

const BlockEval& ProjectBlock(const GroupRemap& remap,
                              const BatchProgram& program,
                              const BlockEval& base, BlockEval* scratch) {
  if (remap.identity()) return base;
  const size_t num_slots = program.num_groups;
  scratch->kind = EvalResult::Kind::kVector;
  scratch->width = base.width;
  scratch->groups = program.groups;
  scratch->num_groups = num_slots;
  scratch->values.resize(num_slots * kMaxLanes);
  scratch->counts.resize(num_slots * kMaxLanes);
  scratch->costs.clear();

  for (size_t t = 0; t < num_slots; ++t) {
    FoldBaseSlots(program.agg, base, remap.src.data() + remap.src_off[t],
                  remap.src_off[t + 1] - remap.src_off[t],
                  scratch->values.data() + t * kMaxLanes,
                  scratch->counts.data() + t * kMaxLanes);
  }
  return *scratch;
}

}  // namespace kernels
}  // namespace prox
