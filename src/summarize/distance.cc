#include "summarize/distance.h"

#include <cmath>
#include <optional>

#include "exec/thread_pool.h"
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

  static const DistanceMetrics& Get() {
    static const DistanceMetrics m = [] {
      auto& r = obs::MetricsRegistry::Default();
      DistanceMetrics m;
      m.enumerated_calls =
          r.GetCounter("prox_distance_enumerated_calls_total",
                       "EnumeratedDistance::Distance invocations.");
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
          "SampledDistance::Distance invocations.");
      m.samples = r.GetCounter(
          "prox_distance_samples_total",
          "Monte-Carlo valuations drawn by the sampled oracle.");
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

}  // namespace

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
              Rng rng(options_.seed, static_cast<uint64_t>(lo) + l);
              std::vector<AnnotationId> cancelled;
              for (AnnotationId a : annotations_) {
                if (rng.Bernoulli(0.5)) cancelled.push_back(a);
              }
              Valuation v(std::move(cancelled));
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
        Rng rng(options_.seed, static_cast<uint64_t>(s));
        std::vector<AnnotationId> cancelled;
        for (AnnotationId a : annotations_) {
          if (rng.Bernoulli(0.5)) cancelled.push_back(a);
        }
        Valuation v(std::move(cancelled));
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

}  // namespace prox
