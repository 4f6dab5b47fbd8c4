#include "summarize/summarizer.h"

#include <algorithm>
#include <cmath>

#include "exec/thread_pool.h"
#include "ir/adopt.h"
#include "ir/term_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "summarize/equivalence.h"

namespace prox {

namespace {

/// Metric handles for the greedy loop, registered once per process (see
/// docs/OBSERVABILITY.md for the catalogue).
struct SummarizeMetrics {
  obs::Counter* runs;
  obs::Counter* steps;
  obs::Counter* rollbacks;
  obs::Counter* equivalence_merges;
  obs::Counter* candidates_scored;
  obs::Counter* candidates_bounded;
  obs::Counter* candidate_eval_nanos_total;
  obs::Counter* warmstart_runs;
  obs::Counter* warmstart_replayed_merges;
  obs::Histogram* step_nanos;
  obs::Histogram* run_nanos;
  obs::Histogram* candidates_per_step;
  obs::Gauge* expression_size;
  obs::Gauge* pricing_cache_peak_bytes;

  static const SummarizeMetrics& Get() {
    static const SummarizeMetrics m = [] {
      auto& r = obs::MetricsRegistry::Default();
      SummarizeMetrics m;
      m.runs = r.GetCounter("prox_summarize_runs_total",
                            "Summarization runs started.");
      m.steps = r.GetCounter("prox_summarize_steps_total",
                             "Greedy steps committed across all runs.");
      m.rollbacks = r.GetCounter(
          "prox_summarize_rollbacks_total",
          "TARGET-DIST overshoot rollbacks (Algorithm 1 line 11).");
      m.equivalence_merges = r.GetCounter(
          "prox_summarize_equivalence_merges_total",
          "Distance-0 equivalence classes merged before the greedy loop.");
      m.candidates_scored =
          r.GetCounter("prox_summarize_candidates_scored_total",
                       "Candidate merges scored (distance + size, or a "
                       "bound that ruled them out).");
      m.candidates_bounded = r.GetCounter(
          "prox_summarize_candidates_bounded_total",
          "Candidate merges whose score bound (size and taxonomy terms) "
          "exceeded a folded candidate's score, so their distance was "
          "never folded.");
      m.candidate_eval_nanos_total = r.GetCounter(
          "prox_summarize_candidate_eval_nanos_total",
          "Total wall time spent pricing candidates, nanoseconds.");
      m.warmstart_runs = r.GetCounter(
          "prox_warmstart_runs_total",
          "Summarization runs warm-started from a previous mapping state "
          "(docs/INGEST.md).");
      m.warmstart_replayed_merges = r.GetCounter(
          "prox_warmstart_replayed_merges_total",
          "Merges replayed from warm-start seeds instead of re-searched.");
      m.step_nanos = r.GetHistogram("prox_summarize_step_duration_nanos",
                                    "Wall time per committed greedy step.",
                                    obs::LatencyBucketsNanos());
      m.run_nanos = r.GetHistogram("prox_summarize_run_duration_nanos",
                                   "Wall time per summarization run.",
                                   obs::LatencyBucketsNanos());
      m.candidates_per_step = r.GetHistogram(
          "prox_summarize_candidates_per_step",
          "Size of the candidate space at each greedy step.",
          obs::CountBuckets());
      m.expression_size =
          r.GetGauge("prox_summarize_expression_size",
                     "Expression size after the most recent step.");
      m.pricing_cache_peak_bytes = r.GetGauge(
          "prox_summarize_pricing_cache_peak_bytes",
          "Peak bytes of the cross-step pricing cache in the most recent "
          "run (capped at 16 MiB).");
      return m;
    }();
    return m;
  }
};

}  // namespace

Summarizer::Summarizer(const ProvenanceExpression* p0,
                       AnnotationRegistry* registry,
                       const SemanticContext* ctx,
                       const ConstraintSet* constraints,
                       EnumeratedDistance* oracle,
                       const std::vector<Valuation>* valuations,
                       SummarizerOptions options)
    : p0_(p0),
      registry_(registry),
      ctx_(ctx),
      constraints_(constraints),
      oracle_(oracle),
      valuations_(valuations),
      options_(std::move(options)) {}

int Summarizer::GroupEquivalent(
    std::unique_ptr<ProvenanceExpression>* current, MappingState* state) {
  std::vector<AnnotationId> anns;
  p0_->CollectAnnotations(&anns);
  auto classes = EquivalenceClasses(anns, *valuations_, *registry_);
  int merges = 0;
  for (const auto& cls : classes) {
    if (cls.size() < 2) continue;
    DomainId domain = registry_->domain(cls.front());
    MergeDecision decision = constraints_->Evaluate(domain, cls, *ctx_);
    if (options_.equivalence_respects_constraints && !decision.allowed) {
      continue;
    }
    std::string name = decision.allowed
                           ? decision.name
                           : "eq:" + registry_->name(cls.front()) + "+" +
                                 std::to_string(cls.size() - 1);
    AnnotationId summary = registry_->AddSummary(domain, name);
    state->Merge(cls, summary);
    ++merges;
  }
  if (merges > 0) {
    // `*current` still equals p0 here (the loop has not started), so
    // applying on it instead of on p0_ keeps the result in the current
    // representation (IR when adopted) with identical content.
    *current = (*current)->Apply(state->cumulative());
  }
  return merges;
}

double CandidateScore(const SummarizerOptions& options, double distance,
                      int64_t size, const Candidate& candidate,
                      int64_t original_size) {
  return options.w_dist * distance +
         options.w_size * (static_cast<double>(size) / original_size) +
         options.w_taxonomy * candidate.decision.taxonomy_distance_max;
}

size_t Summarizer::PickBest(const CandidateSet& candidates,
                            std::vector<ScoredCandidate>* scored) const {
  if (options_.use_ordinal_ranks) {
    // Convert distance and size into ordinal ranks among the step's
    // candidates (ties share the lower rank), scaled to [0,1].
    const size_t k = scored->size();
    std::vector<size_t> by_dist(k), by_size(k);
    for (size_t i = 0; i < k; ++i) by_dist[i] = by_size[i] = i;
    std::sort(by_dist.begin(), by_dist.end(), [&](size_t a, size_t b) {
      return (*scored)[a].distance < (*scored)[b].distance;
    });
    std::sort(by_size.begin(), by_size.end(), [&](size_t a, size_t b) {
      return (*scored)[a].size < (*scored)[b].size;
    });
    std::vector<double> dist_rank(k), size_rank(k);
    for (size_t r = 0; r < k; ++r) {
      dist_rank[by_dist[r]] =
          (r > 0 && (*scored)[by_dist[r]].distance ==
                        (*scored)[by_dist[r - 1]].distance)
              ? dist_rank[by_dist[r - 1]]
              : static_cast<double>(r) / k;
      size_rank[by_size[r]] =
          (r > 0 &&
           (*scored)[by_size[r]].size == (*scored)[by_size[r - 1]].size)
              ? size_rank[by_size[r - 1]]
              : static_cast<double>(r) / k;
    }
    for (size_t i = 0; i < k; ++i) {
      (*scored)[i].score =
          options_.w_dist * dist_rank[i] + options_.w_size * size_rank[i] +
          options_.w_taxonomy *
              candidates[(*scored)[i].index].decision.taxonomy_distance_max;
    }
  }

  // Minimal score among the priced candidates; break ties by the taxonomy
  // distance criterion, then by candidate order (deterministic).
  size_t best = 0;
  while (!(*scored)[best].priced) ++best;
  for (size_t i = best + 1; i < scored->size(); ++i) {
    const auto& a = (*scored)[i];
    const auto& b = (*scored)[best];
    if (!a.priced) continue;
    if (a.score < b.score) {
      best = i;
    } else if (a.score == b.score && options_.tie_break != TieBreak::kFirst) {
      double ta, tb;
      if (options_.tie_break == TieBreak::kTaxonomyMax) {
        ta = candidates[a.index].decision.taxonomy_distance_max;
        tb = candidates[b.index].decision.taxonomy_distance_max;
      } else {
        ta = candidates[a.index].decision.taxonomy_distance_sum;
        tb = candidates[b.index].decision.taxonomy_distance_sum;
      }
      if (ta < tb) best = i;
    }
  }
  return best;
}

Result<SummaryOutcome> Summarizer::Run() {
  if (options_.w_dist < 0 || options_.w_size < 0) {
    return Status::InvalidArgument("weights must be non-negative");
  }
  const double weight_sum = options_.w_dist + options_.w_size;
  if (weight_sum <= 0.0) {
    return Status::InvalidArgument(
        "w_dist + w_size must be positive (both weights are zero)");
  }
  if (std::abs(weight_sum - 1.0) > 1e-9) {
    // Definition 3.2.4 wants a convex combination; normalizing preserves
    // the candidate ranking (common scale factor) while keeping reported
    // scores meaningful.
    options_.w_dist /= weight_sum;
    options_.w_size /= weight_sum;
  }
  if (options_.candidates.arity < 2) {
    return Status::InvalidArgument("merge arity must be at least 2");
  }

  const SummarizeMetrics& metrics = SummarizeMetrics::Get();
  metrics.runs->Increment();
  obs::TraceSpan run_span("summarize.run");
  SummaryOutcome outcome{.state = MappingState(registry_, options_.phi)};
  // Copy the input into a run-local pool (docs/IR.md): main-thread Apply
  // interns here, never into the caller's pool. The pool lives as long as
  // the run's expressions via the shared_ptr each IR expression holds.
  std::unique_ptr<ProvenanceExpression> current =
      ir::Adopt(*p0_, std::make_shared<ir::TermPool>());
  MappingState& state = outcome.state;

  const bool warm =
      options_.warm_seed != nullptr && !options_.warm_seed->empty();
  if (warm) {
    // Warm start: rebuild the previous run's mapping state and jump the
    // expression to it, instead of re-searching merges the previous run
    // already paid for. The seed subsumes GroupEquivalent (its run
    // performed any distance-0 merges first), so that pass is skipped.
    obs::TraceSpan warm_span("summarize.warm_replay");
    state.Replay(*options_.warm_seed);
    current = current->Apply(state.cumulative());
    outcome.warm_replayed_merges = state.num_merges();
    metrics.warmstart_runs->Increment();
    metrics.warmstart_replayed_merges->Increment(
        static_cast<uint64_t>(outcome.warm_replayed_merges));
  } else if (options_.group_equivalent_first) {
    obs::TraceSpan equivalence_span("summarize.group_equivalent");
    outcome.equivalence_merges = GroupEquivalent(&current, &state);
    metrics.equivalence_merges->Increment(outcome.equivalence_merges);
  }

  const int64_t original_size = std::max<int64_t>(p0_->Size(), 1);
  double dist = oracle_->Distance(*current, state);

  CandidateGenerator generator(constraints_, ctx_);

  // Previous step's snapshot, for the TARGET-DIST rollback.
  std::unique_ptr<ProvenanceExpression> prev_expr;
  MappingState prev_state = state;
  double prev_dist = dist;

  // One pool resolution per run. threads = 1 keeps pool() null, which makes
  // every ParallelFor below the plain serial loop.
  exec::PoolRef pool(options_.threads);
  // What a step carries into the next (the candidates, the merges' size
  // changes and dirty-group terms), and the step's working vectors, reused
  // from step to step.
  PricingCache pricing_cache;
  CandidateSet candidates;
  std::vector<MergeQuery> merges;
  std::vector<MergePrice> prices;
  std::vector<ScoredCandidate> scored;
  std::vector<uint32_t> fold;
  // Bounded steps fold a distance only where it can still decide the step
  // (docs/KERNELS.md, *Bounded steps*). Ordinal ranks need every distance,
  // and a bound without size or taxonomy term is the same for every
  // candidate.
  const bool bounded =
      !options_.use_ordinal_ranks &&
      (options_.w_size != 0.0 || options_.w_taxonomy != 0.0);

  int step = 0;
  while (step < options_.max_steps && current->Size() > options_.target_size &&
         dist < options_.target_dist) {
    obs::TraceSpan step_span("summarize.step");
    generator.Generate(*current, state, options_.candidates, &candidates);
    if (candidates.empty()) {
      // Not a step: nothing merged, so no span is recorded either.
      step_span.Cancel();
      break;
    }
    metrics.candidates_per_step->Observe(
        static_cast<double>(candidates.size()));

    // One scratch summary annotation per domain per step is enough: no two
    // candidates of one domain are priced against each other's merge.
    // Registering them all *before* scoring keeps the registry read-only
    // while workers price candidates (annotation.h documents that
    // contract). Candidates come in domain order, one run per domain.
    merges.resize(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      const DomainId domain = candidates[i].domain;
      const AnnotationId scratch =
          i > 0 && candidates[i - 1].domain == domain
              ? merges[i - 1].scratch
              : registry_->AddSummary(domain, "~scratch");
      merges[i] = {candidates.roots(candidates[i]), scratch,
                   candidates[i].prev};
    }

    // Step pricing (docs/KERNELS.md): the oracle prices merges against the
    // current expression without building the candidates, fanning the fold
    // (or materialize) pass out over the pool; the shape pass runs here.
    // Workers share only read-only state, and results land by
    // index, so PickBest sees exactly the ordering and tie-breaks of the
    // serial loop. This aggregate span stands in for per-candidate spans.
    obs::TraceSpan eval_span("summarize.candidate_eval");
    const size_t n = candidates.size();
    scored.resize(n);
    for (size_t i = 0; i < n; ++i) scored[i] = {i, 0.0, 0, 0.0, true};
    if (!oracle_->ShapeMerges(*current, state, merges, &pricing_cache,
                              &prices)) {
      oracle_->MaterializeMerges(*current, state, merges, pool.pool(),
                                 &prices);
    } else if (!bounded) {
      fold.resize(n);
      for (size_t i = 0; i < n; ++i) fold[i] = static_cast<uint32_t>(i);
      oracle_->FoldMerges(fold, pool.pool(), &pricing_cache, &prices);
      oracle_->CommitStep(&pricing_cache);
    } else {
      // The score at distance 0.0 bounds the score from below, bit for bit
      // (the distance term is non-negative and rounding is monotone). Round
      // 1 folds the candidate of smallest bound, the first on ties; its
      // score bounds the step's best. Round 2 folds every other candidate
      // whose bound does not exceed it. The rest can neither win nor tie.
      size_t first = 0;
      for (size_t i = 0; i < n; ++i) {
        scored[i].score =
            CandidateScore(options_, 0.0, prices[i].size, candidates[i],
                           original_size);
        if (scored[i].score < scored[first].score) first = i;
      }
      fold.assign(1, static_cast<uint32_t>(first));
      oracle_->FoldMerges(fold, pool.pool(), &pricing_cache, &prices);
      const double first_score =
          CandidateScore(options_, prices[first].distance, prices[first].size,
                         candidates[first], original_size);
      fold.clear();
      for (size_t i = 0; i < n; ++i) {
        if (i == first) continue;
        if (scored[i].score <= first_score) {
          fold.push_back(static_cast<uint32_t>(i));
        } else {
          scored[i].priced = false;
        }
      }
      oracle_->FoldMerges(fold, pool.pool(), &pricing_cache, &prices);
      oracle_->CommitStep(&pricing_cache);
    }
    uint64_t unpriced = 0;
    for (size_t i = 0; i < n; ++i) {
      ScoredCandidate& sc = scored[i];
      if (!sc.priced) {
        ++unpriced;
        continue;
      }
      sc.distance = prices[i].distance;
      sc.size = prices[i].size;
      sc.score = CandidateScore(options_, sc.distance, sc.size,
                                candidates[i], original_size);
    }
    const int64_t eval_total_nanos = eval_span.Close();
    metrics.candidates_scored->Increment(n);
    metrics.candidates_bounded->Increment(unpriced);
    metrics.candidate_eval_nanos_total->Increment(eval_total_nanos);
    const double eval_nanos = static_cast<double>(eval_total_nanos) / n;

    size_t best = PickBest(candidates, &scored);
    const Candidate& winner = candidates[scored[best].index];
    const std::span<const AnnotationId> winner_roots =
        candidates.roots(winner);

    // Commit the winning merge under its real (semantically derived) name.
    AnnotationId summary =
        registry_->AddSummary(winner.domain, winner.decision.name);
    prev_expr = std::move(current);
    prev_state = state;
    prev_dist = dist;

    StepRecord record;
    record.merged_roots.assign(winner_roots.begin(), winner_roots.end());
    state.Merge(record.merged_roots, summary);
    Homomorphism commit_hom;
    for (AnnotationId root : winner_roots) commit_hom.Set(root, summary);
    current = prev_expr->Apply(commit_hom);
    // The winner's priced distance is Distance on the committed expression,
    // bit for bit: the scratch and the summary id both sort after every
    // annotation of the current expression, so rows, monomials and groups
    // land in the same order under either.
    dist = prices[scored[best].index].distance;
    ++step;

    record.step = step;
    record.summary = summary;
    record.summary_name = registry_->name(summary);
    record.distance = dist;
    record.size = current->Size();
    record.score = scored[best].score;
    record.num_candidates = static_cast<int>(candidates.size());
    record.candidate_eval_nanos = eval_nanos;
    // StepRecord timings are views over the trace spans: closing the span
    // here makes the trace JSON and the record the same measurement.
    const int64_t step_total_nanos = step_span.Close();
    record.step_nanos = static_cast<double>(step_total_nanos);
    metrics.steps->Increment();
    metrics.step_nanos->Observe(static_cast<double>(step_total_nanos));
    metrics.expression_size->Set(static_cast<double>(record.size));
    outcome.steps.push_back(std::move(record));
  }

  // Algorithm 1 line 11: the last merge overshot the distance budget.
  if (dist >= options_.target_dist && prev_expr != nullptr) {
    current = std::move(prev_expr);
    state = prev_state;
    dist = prev_dist;
    outcome.rolled_back = true;
    metrics.rollbacks->Increment();
  }

  metrics.pricing_cache_peak_bytes->Set(
      static_cast<double>(pricing_cache.peak_bytes()));
  outcome.summary = std::move(current);
  outcome.final_distance = dist;
  outcome.final_size = outcome.summary->Size();
  const int64_t run_total_nanos = run_span.Close();
  outcome.total_nanos = static_cast<double>(run_total_nanos);
  metrics.run_nanos->Observe(static_cast<double>(run_total_nanos));
  return outcome;
}

}  // namespace prox
