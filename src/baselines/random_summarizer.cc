#include "baselines/random_summarizer.h"

#include "common/timer.h"
#include "ir/adopt.h"
#include "ir/term_pool.h"

namespace prox {

RandomSummarizer::RandomSummarizer(const ProvenanceExpression* p0,
                                   AnnotationRegistry* registry,
                                   const SemanticContext* ctx,
                                   const ConstraintSet* constraints,
                                   EnumeratedDistance* oracle,
                                   RandomSummarizerOptions options)
    : p0_(p0),
      registry_(registry),
      ctx_(ctx),
      constraints_(constraints),
      oracle_(oracle),
      options_(std::move(options)) {}

Result<SummaryOutcome> RandomSummarizer::Run() {
  Timer run_timer;
  Rng rng(options_.seed);

  SummaryOutcome outcome{nullptr, MappingState(registry_, options_.phi), {},
                         0.0, 0, false, 0, 0.0};
  MappingState& state = outcome.state;
  // A run-local copy, as in the Summarizer: Apply interns into this pool,
  // never into p0's (docs/IR.md).
  std::unique_ptr<ProvenanceExpression> current =
      ir::Adopt(*p0_, std::make_shared<ir::TermPool>());
  double dist = oracle_->Distance(*current, state);

  CandidateGenerator generator(constraints_, ctx_);
  CandidateSet candidates;
  CandidateOptions copts;
  copts.arity = options_.merge_arity;

  std::unique_ptr<ProvenanceExpression> prev_expr;
  MappingState prev_state = state;
  double prev_dist = dist;

  int step = 0;
  while (step < options_.max_steps && current->Size() > options_.target_size &&
         dist < options_.target_dist) {
    Timer step_timer;
    generator.Generate(*current, state, copts, &candidates);
    if (candidates.empty()) break;

    const Candidate& pick = candidates[rng.PickIndex(candidates.size())];
    const std::span<const AnnotationId> pick_roots = candidates.roots(pick);
    AnnotationId summary =
        registry_->AddSummary(pick.domain, pick.decision.name);

    prev_expr = std::move(current);
    prev_state = state;
    prev_dist = dist;

    StepRecord record;
    record.merged_roots.assign(pick_roots.begin(), pick_roots.end());
    state.Merge(record.merged_roots, summary);
    Homomorphism h;
    for (AnnotationId root : pick_roots) h.Set(root, summary);
    current = prev_expr->Apply(h);
    dist = oracle_->Distance(*current, state);
    ++step;

    record.step = step;
    record.summary = summary;
    record.summary_name = registry_->name(summary);
    record.distance = dist;
    record.size = current->Size();
    record.num_candidates = static_cast<int>(candidates.size());
    record.step_nanos = static_cast<double>(step_timer.ElapsedNanos());
    outcome.steps.push_back(std::move(record));
  }

  if (dist >= options_.target_dist && prev_expr != nullptr) {
    current = std::move(prev_expr);
    state = prev_state;
    dist = prev_dist;
    outcome.rolled_back = true;
  }

  outcome.summary = std::move(current);
  outcome.final_distance = dist;
  outcome.final_size = outcome.summary->Size();
  outcome.total_nanos = static_cast<double>(run_timer.ElapsedNanos());
  return outcome;
}

}  // namespace prox
