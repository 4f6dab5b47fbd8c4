#include "testing/reference_summarizer.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "ir/agg_expr.h"
#include "provenance/agg_value.h"
#include "summarize/distance.h"
#include "summarize/equivalence.h"

namespace prox {
namespace testing_reference {

EvalResult ProjectEvalResult(const ProvenanceExpression& cand,
                             const EvalResult& base, const Homomorphism& h) {
  if (base.kind() != EvalResult::Kind::kVector) return base;
  if (std::all_of(base.coords().begin(), base.coords().end(),
                  [&](const EvalResult::Coord& c) {
                    return h.Map(c.group) == c.group;
                  })) {
    return base;
  }
  const AggKind agg = cand.AsAggregate()->agg();
  struct Slot {
    double value = 0.0;
    double count = 0.0;
    bool seen = false;
  };
  std::map<AnnotationId, Slot> acc;
  for (const auto& c : base.coords()) {
    Slot& slot = acc[h.Map(c.group)];
    if (agg == AggKind::kAvg) {
      // Coordinates carry averages; merge as count-weighted sums.
      slot.value += c.value * c.count;
      slot.count += c.count;
    } else {
      AggValue v{c.value, 0.0};
      if (agg == AggKind::kCount) v.count = c.value;
      slot.value = FoldAggregate(agg, slot.value, v, !slot.seen);
    }
    slot.seen = true;
  }
  std::vector<EvalResult::Coord> coords;
  for (const auto& [group, slot] : acc) {
    double value = slot.value;
    if (agg == AggKind::kAvg) {
      value = slot.count > 0 ? slot.value / slot.count : 0.0;
    }
    coords.push_back(EvalResult::Coord{group, value, slot.count});
  }
  return EvalResult::Vector(std::move(coords));
}

double ReferenceDistance(const DistanceInputs& in,
                         const ProvenanceExpression& cand,
                         const MappingState& state) {
  const std::vector<Valuation>& valuations = *in.valuations;
  if (valuations.empty()) return 0.0;
  const size_t n = in.registry->size();
  double max_error =
      in.val_func->MaxError(in.p0->Evaluate(MaterializedValuation(n)));
  if (max_error <= 0.0) max_error = 1.0;
  double total_weight = 0.0;
  for (const Valuation& v : valuations) total_weight += v.weight();

  const size_t grain = EnumeratedDistance::kReductionGrain;
  double total = 0.0;
  for (size_t lo = 0; lo < valuations.size(); lo += grain) {
    double partial = 0.0;
    for (size_t i = lo; i < std::min(valuations.size(), lo + grain); ++i) {
      const Valuation& v = valuations[i];
      const EvalResult base = in.p0->Evaluate(MaterializedValuation(v, n));
      const EvalResult orig =
          ProjectEvalResult(cand, base, state.cumulative());
      const EvalResult summ = cand.Evaluate(state.Transform(v, n));
      partial += v.weight() * in.val_func->Compute(orig, summ);
    }
    total += partial;
  }
  return (total / total_weight) / max_error;
}

namespace {

/// Summarizer::PickBest over fully priced candidates: ordinal ranks when
/// asked for, then the smallest score, ties broken by the taxonomy
/// criterion, then by candidate order.
size_t PickBest(const SummarizerOptions& options,
                std::vector<ReferencePrice>* priced) {
  std::vector<ReferencePrice>& p = *priced;
  const size_t k = p.size();
  if (options.use_ordinal_ranks) {
    // Ordinal ranks among the step's candidates, ties sharing the lower
    // rank, scaled to [0,1].
    std::vector<size_t> by_dist(k), by_size(k);
    for (size_t i = 0; i < k; ++i) by_dist[i] = by_size[i] = i;
    std::sort(by_dist.begin(), by_dist.end(), [&](size_t a, size_t b) {
      return p[a].distance < p[b].distance;
    });
    std::sort(by_size.begin(), by_size.end(),
              [&](size_t a, size_t b) { return p[a].size < p[b].size; });
    std::vector<double> dist_rank(k), size_rank(k);
    for (size_t r = 0; r < k; ++r) {
      dist_rank[by_dist[r]] =
          r > 0 && p[by_dist[r]].distance == p[by_dist[r - 1]].distance
              ? dist_rank[by_dist[r - 1]]
              : static_cast<double>(r) / k;
      size_rank[by_size[r]] =
          r > 0 && p[by_size[r]].size == p[by_size[r - 1]].size
              ? size_rank[by_size[r - 1]]
              : static_cast<double>(r) / k;
    }
    for (size_t i = 0; i < k; ++i) {
      p[i].score = options.w_dist * dist_rank[i] +
                   options.w_size * size_rank[i] +
                   options.w_taxonomy *
                       p[i].candidate.decision.taxonomy_distance_max;
    }
  }
  auto taxonomy = [&](size_t i) {
    return options.tie_break == TieBreak::kTaxonomyMax
               ? p[i].candidate.decision.taxonomy_distance_max
               : p[i].candidate.decision.taxonomy_distance_sum;
  };
  size_t best = 0;
  for (size_t i = 1; i < k; ++i) {
    if (p[i].score < p[best].score) {
      best = i;
    } else if (p[i].score == p[best].score &&
               options.tie_break != TieBreak::kFirst &&
               taxonomy(i) < taxonomy(best)) {
      best = i;
    }
  }
  return best;
}

/// Proposition 4.2.1's distance-0 merges, as Summarizer::Run applies them
/// before the greedy loop; returns the number of classes merged.
int GroupEquivalent(const ProvenanceExpression& p0,
                    AnnotationRegistry* registry, const SemanticContext& ctx,
                    const ConstraintSet& constraints,
                    const std::vector<Valuation>& valuations,
                    const SummarizerOptions& options,
                    std::unique_ptr<ProvenanceExpression>* current,
                    MappingState* state) {
  std::vector<AnnotationId> anns;
  p0.CollectAnnotations(&anns);
  int merges = 0;
  for (const auto& cls : EquivalenceClasses(anns, valuations, *registry)) {
    if (cls.size() < 2) continue;
    const DomainId domain = registry->domain(cls.front());
    const MergeDecision decision = constraints.Evaluate(domain, cls, ctx);
    if (options.equivalence_respects_constraints && !decision.allowed) {
      continue;
    }
    const std::string name = decision.allowed
                                 ? decision.name
                                 : "eq:" + registry->name(cls.front()) + "+" +
                                       std::to_string(cls.size() - 1);
    state->Merge(cls, registry->AddSummary(domain, name));
    ++merges;
  }
  if (merges > 0) *current = (*current)->Apply(state->cumulative());
  return merges;
}

}  // namespace

ReferenceRun RunReference(const ProvenanceExpression& p0,
                          AnnotationRegistry* registry,
                          const SemanticContext& ctx,
                          const ConstraintSet& constraints,
                          const ValFunc& val_func,
                          const std::vector<Valuation>& valuations,
                          SummarizerOptions options) {
  const double weight_sum = options.w_dist + options.w_size;
  if (std::abs(weight_sum - 1.0) > 1e-9) {
    options.w_dist /= weight_sum;
    options.w_size /= weight_sum;
  }
  const DistanceInputs in{&p0, registry, &val_func, &valuations};
  ReferenceRun run{.outcome = {.state = MappingState(registry, options.phi)}};
  SummaryOutcome& outcome = run.outcome;
  MappingState& state = outcome.state;
  std::unique_ptr<ProvenanceExpression> current = p0.Clone();

  if (options.warm_seed != nullptr && !options.warm_seed->empty()) {
    state.Replay(*options.warm_seed);
    current = current->Apply(state.cumulative());
    outcome.warm_replayed_merges = state.num_merges();
  } else if (options.group_equivalent_first) {
    outcome.equivalence_merges =
        GroupEquivalent(p0, registry, ctx, constraints, valuations, options,
                        &current, &state);
  }

  const int64_t original_size = std::max<int64_t>(p0.Size(), 1);
  double dist = ReferenceDistance(in, *current, state);
  std::unique_ptr<ProvenanceExpression> prev_expr;
  MappingState prev_state = state;
  double prev_dist = dist;
  CandidateGenerator generator(&constraints, &ctx);

  int step = 0;
  while (step < options.max_steps && current->Size() > options.target_size &&
         dist < options.target_dist) {
    // A set of its own each step: every subset is enumerated and evaluated
    // afresh, never carried from the last step.
    CandidateSet candidates;
    generator.Generate(*current, state, options.candidates, &candidates);
    if (candidates.empty()) break;

    // One scratch summary annotation per domain per step, registered in
    // candidate order before any candidate is priced.
    std::vector<AnnotationId> scratch(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      scratch[i] = i > 0 && candidates[i - 1].domain == candidates[i].domain
                       ? scratch[i - 1]
                       : registry->AddSummary(candidates[i].domain,
                                              "~scratch");
    }
    std::vector<ReferencePrice>& priced = run.priced.emplace_back();
    for (size_t i = 0; i < candidates.size(); ++i) {
      const std::span<const AnnotationId> roots =
          candidates.roots(candidates[i]);
      ReferencePrice& p = priced.emplace_back();
      p.roots.assign(roots.begin(), roots.end());
      p.candidate = candidates[i];
      MappingState tentative = state;
      tentative.Merge(p.roots, scratch[i]);
      Homomorphism h;
      for (AnnotationId root : roots) h.Set(root, scratch[i]);
      const std::unique_ptr<ProvenanceExpression> cand = current->Apply(h);
      p.distance = ReferenceDistance(in, *cand, tentative);
      p.size = cand->Size();
      p.score = CandidateScore(options, p.distance, p.size, candidates[i],
                               original_size);
    }
    const size_t best = PickBest(options, &priced);
    const ReferencePrice& winner = priced[best];

    StepRecord record;
    record.merged_roots = winner.roots;
    record.summary = registry->AddSummary(winner.candidate.domain,
                                          winner.candidate.decision.name);
    prev_expr = std::move(current);
    prev_state = state;
    prev_dist = dist;
    state.Merge(record.merged_roots, record.summary);
    Homomorphism commit;
    for (AnnotationId root : record.merged_roots) {
      commit.Set(root, record.summary);
    }
    current = prev_expr->Apply(commit);
    dist = ReferenceDistance(in, *current, state);
    ++step;

    record.step = step;
    record.summary_name = registry->name(record.summary);
    record.distance = dist;
    record.size = current->Size();
    record.score = winner.score;
    record.num_candidates = static_cast<int>(candidates.size());
    outcome.steps.push_back(std::move(record));
  }

  // Algorithm 1 line 11: the last merge overshot the distance budget.
  if (dist >= options.target_dist && prev_expr != nullptr) {
    current = std::move(prev_expr);
    state = prev_state;
    dist = prev_dist;
    outcome.rolled_back = true;
  }
  outcome.summary = std::move(current);
  outcome.final_distance = dist;
  outcome.final_size = outcome.summary->Size();
  return run;
}

}  // namespace testing_reference
}  // namespace prox
