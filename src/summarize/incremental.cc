#include "summarize/incremental.h"

#include <algorithm>
#include <cmath>

#include "kernels/batch_eval.h"

namespace prox {

namespace {

/// Stand-in id for the not-yet-registered summary annotation inside mapped
/// monomials/guards. Annotation ids never reach this value in practice
/// (kNoAnnotation is the max; this is one below).
constexpr AnnotationId kPendingSummary = kNoAnnotation - 1;

/// Truth of a (possibly mapped) monomial: the pending-summary sentinel
/// resolves to `summary_truth`, everything else to the bitmap.
bool MonomialTruth(const Monomial& m, const MaterializedValuation& v,
                   bool summary_truth) {
  for (AnnotationId a : m.factors()) {
    const bool t = a == kPendingSummary ? summary_truth : v.truth(a);
    if (!t) return false;
  }
  return true;
}

bool GuardTruth(const Guard& g, const MaterializedValuation& v,
                bool summary_truth) {
  const bool body = MonomialTruth(g.factors(), v, summary_truth);
  const double value = body ? g.scalar() : 0.0;
  switch (g.op()) {
    case CompareOp::kGt:
      return value > g.threshold();
    case CompareOp::kGe:
      return value >= g.threshold();
    case CompareOp::kLt:
      return value < g.threshold();
    case CompareOp::kLe:
      return value <= g.threshold();
    case CompareOp::kEq:
      return value == g.threshold();
    case CompareOp::kNe:
      return value != g.threshold();
  }
  return false;
}

int64_t TermSize(const TensorTerm& t) {
  return t.monomial.Size() + (t.guard ? t.guard->Size() : 0);
}

}  // namespace

std::unique_ptr<IncrementalScorer> IncrementalScorer::Create(
    const ProvenanceExpression* current, const EnumeratedDistance* oracle,
    const MappingState* state, Metric metric) {
  std::unique_ptr<IncrementalScorer> scorer(
      new IncrementalScorer(current, oracle, state, metric));
  if (!scorer->Initialize()) return nullptr;
  return scorer;
}

IncrementalScorer::IncrementalScorer(const ProvenanceExpression* current,
                                     const EnumeratedDistance* oracle,
                                     const MappingState* state,
                                     Metric metric)
    : current_(current), oracle_(oracle), state_(state), metric_(metric) {}

bool IncrementalScorer::Initialize() {
  // Read the aggregate structure through the facade and snapshot it into
  // owning terms (facade views are transient).
  const AggregateFacade* facade = current_->AsAggregate();
  if (facade == nullptr) return false;
  agg_ = facade->agg_kind();
  const size_t num_terms = facade->agg_num_terms();
  terms_.clear();
  terms_.reserve(num_terms);
  for (size_t i = 0; i < num_terms; ++i) {
    const AggTermView view = facade->agg_term(i);
    TensorTerm term;
    term.monomial = MonomialFromSpan(view.mono, view.mono_len);
    if (view.has_guard) term.guard = GuardFromView(view);
    term.group = view.group;
    term.value = view.value;
    terms_.push_back(std::move(term));
  }

  groups_.clear();
  for (const TensorTerm& t : terms_) groups_.push_back(t.group);
  std::sort(groups_.begin(), groups_.end());
  groups_.erase(std::unique(groups_.begin(), groups_.end()), groups_.end());
  for (size_t i = 0; i < groups_.size(); ++i) group_index_[groups_[i]] = i;

  // Project the cached base evaluations into the current coordinate space
  // (identity when no group keys were merged in the history; the
  // aggregate-fold projection of Example 5.2.1 otherwise). Candidates
  // themselves never merge group keys (CanScore), so the candidate's
  // projection equals the current one.
  const auto& raw_base_evals = oracle_->base_evals();
  if (raw_base_evals.size() != oracle_->valuations().size()) return false;
  std::vector<EvalResult> base_evals;
  base_evals.reserve(raw_base_evals.size());
  for (const EvalResult& raw : raw_base_evals) {
    base_evals.push_back(
        current_->ProjectEvalResult(raw, state_->cumulative()));
  }
  base_values_.resize(base_evals.size());
  for (size_t i = 0; i < base_evals.size(); ++i) {
    auto& row = base_values_[i];
    row.assign(groups_.size(), 0.0);
    const EvalResult& base = base_evals[i];
    if (base.kind() == EvalResult::Kind::kScalar) {
      if (groups_.size() != 1 || groups_[0] != kNoAnnotation) return false;
      row[0] = base.scalar();
    } else if (base.kind() == EvalResult::Kind::kVector) {
      for (const auto& coord : base.coords()) {
        auto it = group_index_.find(coord.group);
        if (it == group_index_.end()) return false;  // projected space
        row[it->second] = coord.value;
      }
    } else {
      return false;  // DDP results are not coordinate-decomposable here
    }
  }

  // Structure indexes.
  terms_of_group_.assign(groups_.size(), {});
  const auto& terms = terms_;
  for (size_t t = 0; t < terms.size(); ++t) {
    terms_of_group_[group_index_.at(terms[t].group)].push_back(t);
    for (AnnotationId a : terms[t].monomial.factors()) {
      terms_of_ann_[a].push_back(t);
    }
    if (terms[t].guard) {
      for (AnnotationId a : terms[t].guard->factors().factors()) {
        terms_of_ann_[a].push_back(t);
      }
    }
  }
  for (auto& [ann, idxs] : terms_of_ann_) {
    std::sort(idxs.begin(), idxs.end());
    idxs.erase(std::unique(idxs.begin(), idxs.end()), idxs.end());
  }

  // Per-valuation caches: transformed bitmap, current coordinate values,
  // and the cached VAL-FUNC accumulator.
  const size_t n = oracle_->registry()->size();
  const auto& valuations = oracle_->valuations();
  transformed_.reserve(valuations.size());
  cur_values_.resize(valuations.size());
  cached_error_.resize(valuations.size());
  for (size_t i = 0; i < valuations.size(); ++i) {
    transformed_.push_back(state_->Transform(valuations[i], n));
  }

  // The cur_values_ build folds every term under every valuation — the
  // one dense pass of this scorer. When `current` can lower itself into a
  // BatchProgram with this scorer's exact coordinate layout, the batch
  // kernels fill 8 valuations per pass; the fold order per (valuation,
  // group) is the row order either way, so the cached values are
  // bit-identical to the scalar build below.
  bool batched = false;
  if (const kernels::BatchEvalFacade* bfacade = current_->AsBatchEval()) {
    const kernels::BatchProgram program = bfacade->LowerBatch();
    const bool scalar_layout =
        groups_.size() == 1 && groups_[0] == kNoAnnotation;
    const bool layout_ok =
        program.shape == kernels::BatchProgram::Shape::kAggregate &&
        (scalar_layout
             ? program.kind == EvalResult::Kind::kScalar
             : kernels::ProgramMatchesLayout(program, EvalResult::Kind::kVector,
                                             groups_.data(), groups_.size()));
    if (layout_ok) {
      batched = true;
      kernels::ValuationBlock block;
      kernels::BlockEval evals;
      constexpr size_t kGrain = 8;
      for (size_t lo = 0; lo < valuations.size(); lo += kGrain) {
        const size_t w = std::min(valuations.size() - lo, kGrain);
        block.Reset(n, w);
        for (size_t l = 0; l < w; ++l) block.FillLane(l, transformed_[lo + l]);
        kernels::EvaluateBlock(program, block, &evals);
        for (size_t l = 0; l < w; ++l) {
          auto& row = cur_values_[lo + l];
          row.resize(groups_.size());
          for (size_t g = 0; g < groups_.size(); ++g) {
            row[g] = evals.values[g * evals.stride + l];
          }
        }
      }
    }
  }

  for (size_t i = 0; i < valuations.size(); ++i) {
    const MaterializedValuation& v = transformed_[i];
    auto& row = cur_values_[i];
    if (!batched) {
      row.assign(groups_.size(), 0.0);
      std::vector<double> counts(groups_.size(), 0.0);
      std::vector<bool> seen(groups_.size(), false);
      for (size_t t = 0; t < terms.size(); ++t) {
        const TensorTerm& term = terms[t];
        const bool alive =
            MonomialTruth(term.monomial, v, false) &&
            (!term.guard || GuardTruth(*term.guard, v, false));
        if (!alive) continue;
        size_t g = group_index_.at(term.group);
        row[g] = FoldAggregate(agg_, row[g], term.value, !seen[g]);
        counts[g] += term.value.count;
        seen[g] = true;
      }
      if (agg_ == AggKind::kAvg) {
        for (size_t g = 0; g < groups_.size(); ++g) {
          row[g] = counts[g] > 0 ? row[g] / counts[g] : 0.0;
        }
      }
    }
    double acc = 0.0;
    for (size_t g = 0; g < groups_.size(); ++g) {
      const double d = base_values_[i][g] - row[g];
      acc += metric_ == Metric::kEuclidean ? d * d : std::abs(d);
    }
    cached_error_[i] = acc;
    total_weight_ += valuations[i].weight();
  }
  return total_weight_ > 0.0;
}

bool IncrementalScorer::CanScore(
    const std::vector<AnnotationId>& roots) const {
  for (AnnotationId root : roots) {
    if (group_index_.count(root) > 0) return false;  // group-key merge
  }
  return true;
}

IncrementalScorer::Score IncrementalScorer::ScoreMerge(
    const std::vector<AnnotationId>& roots) const {
  const auto& terms = terms_;

  // Affected terms and coordinates.
  std::vector<size_t> affected;
  for (AnnotationId root : roots) {
    auto it = terms_of_ann_.find(root);
    if (it == terms_of_ann_.end()) continue;
    affected.insert(affected.end(), it->second.begin(), it->second.end());
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());

  auto is_root = [&roots](AnnotationId a) {
    return std::find(roots.begin(), roots.end(), a) != roots.end();
  };
  auto map_ann = [&is_root](AnnotationId a) {
    return is_root(a) ? kPendingSummary : a;
  };

  // Build the mapped affected terms, merging tensor collisions (the
  // Apply+Simplify congruence, applied locally).
  // A plain `Guard` + flag (instead of std::optional) keeps the key fully
  // initialized, which also sidesteps GCC's maybe-uninitialized noise on
  // optional payloads inside map nodes.
  struct MappedKey {
    AnnotationId group = kNoAnnotation;
    Monomial mono;
    bool has_guard = false;
    Guard guard;
    bool operator<(const MappedKey& o) const {
      if (group != o.group) return group < o.group;
      if (mono != o.mono) return mono < o.mono;
      if (has_guard != o.has_guard) return o.has_guard;
      if (!has_guard) return false;
      return guard < o.guard;
    }
  };
  std::map<MappedKey, AggValue> mapped;
  int64_t affected_size_before = 0;
  for (size_t t : affected) {
    const TensorTerm& term = terms[t];
    affected_size_before += TermSize(term);
    MappedKey key;
    key.group = term.group;  // roots are never group keys (CanScore)
    key.mono = term.monomial.Map(map_ann);
    if (term.guard) {
      key.has_guard = true;
      key.guard = term.guard->Map(map_ann);
    }
    auto [it, inserted] = mapped.emplace(std::move(key), term.value);
    if (!inserted) {
      it->second = MergeAggValues(agg_, it->second, term.value);
    }
  }
  int64_t mapped_size = 0;
  std::map<size_t, std::vector<const std::pair<const MappedKey, AggValue>*>>
      mapped_by_group;
  for (const auto& entry : mapped) {
    mapped_size += entry.first.mono.Size() +
                   (entry.first.has_guard ? entry.first.guard.Size() : 0);
    mapped_by_group[group_index_.at(entry.first.group)].push_back(&entry);
  }

  // Original member annotations behind the hypothetical summary, for φ.
  std::vector<AnnotationId> members;
  for (AnnotationId root : roots) {
    auto ms = state_->Members(root);
    members.insert(members.end(), ms.begin(), ms.end());
  }
  const PhiKind phi =
      state_->PhiFor(oracle_->registry()->domain(roots.front()));

  // Marker for term indices that are affected (skipped in recomputation —
  // their mapped versions contribute instead).
  std::vector<bool> is_affected(terms.size(), false);
  for (size_t t : affected) is_affected[t] = true;

  const auto& valuations = oracle_->valuations();
  double total = 0.0;
  for (size_t i = 0; i < valuations.size(); ++i) {
    const MaterializedValuation& v = transformed_[i];

    bool summary_truth;
    if (phi == PhiKind::kOr) {
      summary_truth = false;
      for (AnnotationId m : members) {
        if (valuations[i].IsTrue(m)) {
          summary_truth = true;
          break;
        }
      }
    } else {
      summary_truth = true;
      for (AnnotationId m : members) {
        if (valuations[i].IsFalse(m)) {
          summary_truth = false;
          break;
        }
      }
    }

    double err = cached_error_[i];
    for (const auto& [g, entries] : mapped_by_group) {
      // Recompute coordinate g: untouched terms + mapped affected terms.
      double value = 0.0;
      double count = 0.0;
      bool seen = false;
      for (size_t t : terms_of_group_[g]) {
        if (is_affected[t]) continue;
        const TensorTerm& term = terms[t];
        const bool alive =
            MonomialTruth(term.monomial, v, false) &&
            (!term.guard || GuardTruth(*term.guard, v, false));
        if (!alive) continue;
        value = FoldAggregate(agg_, value, term.value, !seen);
        count += term.value.count;
        seen = true;
      }
      for (const auto* entry : entries) {
        const bool alive =
            MonomialTruth(entry->first.mono, v, summary_truth) &&
            (!entry->first.has_guard ||
             GuardTruth(entry->first.guard, v, summary_truth));
        if (!alive) continue;
        value = FoldAggregate(agg_, value, entry->second, !seen);
        count += entry->second.count;
        seen = true;
      }
      if (agg_ == AggKind::kAvg) {
        value = count > 0 ? value / count : 0.0;
      }
      const double base = base_values_[i][g];
      const double old_value = cur_values_[i][g];
      if (metric_ == Metric::kEuclidean) {
        err += (base - value) * (base - value) -
               (base - old_value) * (base - old_value);
      } else {
        err += std::abs(base - value) - std::abs(base - old_value);
      }
    }
    const double val_func =
        metric_ == Metric::kEuclidean ? std::sqrt(std::max(err, 0.0)) : err;
    total += valuations[i].weight() * val_func;
  }

  Score score;
  score.distance = (total / total_weight_) / oracle_->max_error();
  score.size = current_->Size() - affected_size_before + mapped_size;
  return score;
}

}  // namespace prox
