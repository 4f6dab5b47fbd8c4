// Bounded greedy steps (docs/KERNELS.md, *Bounded steps*). Summarizer::Run
// folds a candidate's distance only when the candidate's score at distance
// 0.0 — its size and taxonomy terms — does not exceed the score of the
// step's smallest-bound candidate. Here a greedy run is walked by hand with
// every merge priced (unbounded PriceMerges), next to Summarizer::Run on an
// identical dataset: at every step each candidate's bound must not exceed
// its score, and the run must commit the walk's winner at the walk's
// distance, size and score, bit for bit, at threads {1, 8}.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "datasets/movielens.h"
#include "datasets/wikipedia.h"
#include "exec/thread_pool.h"
#include "ir/adopt.h"
#include "ir/term_pool.h"
#include "obs/metrics.h"
#include "summarize/candidates.h"
#include "summarize/distance.h"
#include "summarize/summarizer.h"
#include "summarize/val_func.h"
#include "summarize/valuation_class.h"
#include "testing/fixtures.h"

namespace prox {
namespace {

using testing_fixtures::NewAggregate;

uint64_t DoubleBits(double x) {
  uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

enum class Family { kMovieLens, kWikipedia };

Dataset Generate(Family family) {
  if (family == Family::kMovieLens) {
    MovieLensConfig config;  // the perfbench shape
    config.num_users = 25;
    config.num_movies = 8;
    config.seed = 99;
    return MovieLensGenerator::Generate(config);
  }
  WikipediaConfig config;
  config.num_users = 16;
  config.num_pages = 8;
  return WikipediaGenerator::Generate(config);
}

double BoundedCount() {
  return obs::MetricsRegistry::Default().Snapshot().CounterValue(
      "prox_summarize_candidates_bounded_total");
}

/// One step of the hand walk: the winner full pricing picks.
struct WalkStep {
  std::vector<AnnotationId> roots;
  AnnotationId summary = kNoAnnotation;
  double distance = 0.0;
  int64_t size = 0;
  double score = 0.0;
};

struct WalkResult {
  std::vector<WalkStep> steps;
  /// Candidates whose bound exceeds the score of the step's smallest-bound
  /// candidate: what a bounded run leaves unfolded.
  uint64_t above_first = 0;
  /// Steps whose winner is not the smallest-bound candidate.
  int round_two_wins = 0;
  bool saw_taxonomy = false;
};

/// Walks Summarizer::Run's loop (no equivalence pass) with every merge
/// priced, registering the same annotations in the same order, so the ids
/// match a run on an identical dataset.
WalkResult WalkUnbounded(Dataset* ds, const SummarizerOptions& options,
                         int threads) {
  WalkResult result;
  const std::vector<Valuation> valuations =
      ds->valuation_class->Generate(*ds->provenance, ds->ctx);
  EnumeratedDistance oracle(ds->provenance.get(), ds->registry.get(),
                            ds->val_func.get(), valuations, threads);
  CandidateGenerator generator(&ds->constraints, &ds->ctx);
  MappingState state(ds->registry.get(), options.phi);
  std::unique_ptr<ProvenanceExpression> current =
      ir::Adopt(*ds->provenance, std::make_shared<ir::TermPool>());
  const int64_t original_size = std::max<int64_t>(ds->provenance->Size(), 1);
  double dist = oracle.Distance(*current, state);
  exec::PoolRef pool(threads);
  PricingCache cache;
  CandidateSet candidates;
  std::vector<MergePrice> prices;
  for (int step = 0; step < options.max_steps && current->Size() > 1 &&
                     dist < options.target_dist;
       ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    generator.Generate(*current, state, options.candidates, &candidates);
    if (candidates.empty()) break;
    std::vector<MergeQuery> merges(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      const DomainId domain = candidates[i].domain;
      const AnnotationId scratch =
          i > 0 && candidates[i - 1].domain == domain
              ? merges[i - 1].scratch
              : ds->registry->AddSummary(domain, "~scratch");
      merges[i] = {candidates.roots(candidates[i]), scratch};
    }
    oracle.PriceMerges(*current, state, merges, pool.pool(), &cache, &prices);

    size_t best = 0;
    size_t first = 0;
    std::vector<double> bounds(candidates.size());
    std::vector<double> scores(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      const Candidate& c = candidates[i];
      if (c.decision.taxonomy_distance_max != 0.0) result.saw_taxonomy = true;
      bounds[i] = CandidateScore(options, 0.0, prices[i].size, c,
                                 original_size);
      scores[i] = CandidateScore(options, prices[i].distance, prices[i].size,
                                 c, original_size);
      EXPECT_LE(bounds[i], scores[i]) << "candidate " << i;
      if (bounds[i] < bounds[first]) first = i;
      const double ta = c.decision.taxonomy_distance_max;
      const double tb = candidates[best].decision.taxonomy_distance_max;
      if (scores[i] < scores[best] ||
          (scores[i] == scores[best] && ta < tb)) {
        best = i;
      }
    }
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (bounds[i] > scores[first]) ++result.above_first;
    }
    if (best != first) ++result.round_two_wins;

    const Candidate& winner = candidates[best];
    WalkStep record;
    record.roots.assign(merges[best].roots.begin(), merges[best].roots.end());
    record.summary =
        ds->registry->AddSummary(winner.domain, winner.decision.name);
    record.distance = prices[best].distance;
    record.size = prices[best].size;
    record.score = scores[best];
    state.Merge(record.roots, record.summary);
    Homomorphism commit;
    for (AnnotationId root : record.roots) commit.Set(root, record.summary);
    current = current->Apply(commit);
    dist = record.distance;
    result.steps.push_back(std::move(record));
  }
  return result;
}

struct Weights {
  double w_dist;
  double w_size;
  double w_taxonomy;
};

/// Runs Summarizer::Run and the unbounded walk on identical datasets and
/// compares every step.
void CompareRunWithWalk(Family family, Weights w, int threads) {
  SCOPED_TRACE(std::string(family == Family::kMovieLens ? "MovieLens"
                                                        : "Wikipedia") +
               " w_dist=" + std::to_string(w.w_dist) +
               " w_size=" + std::to_string(w.w_size) +
               " w_taxonomy=" + std::to_string(w.w_taxonomy) +
               " threads=" + std::to_string(threads));
  Dataset run_ds = Generate(family);
  Dataset walk_ds = Generate(family);
  SummarizerOptions options;
  options.w_dist = w.w_dist;
  options.w_size = w.w_size;
  options.w_taxonomy = w.w_taxonomy;
  options.max_steps = 12;
  options.group_equivalent_first = false;
  options.phi = run_ds.phi;
  options.threads = threads;

  const std::vector<Valuation> valuations =
      run_ds.valuation_class->Generate(*run_ds.provenance, run_ds.ctx);
  EnumeratedDistance oracle(run_ds.provenance.get(), run_ds.registry.get(),
                            run_ds.val_func.get(), valuations, threads);
  Summarizer summarizer(run_ds.provenance.get(), run_ds.registry.get(),
                        &run_ds.ctx, &run_ds.constraints, &oracle,
                        &valuations, options);
  const double bounded_before = BoundedCount();
  auto outcome = summarizer.Run();
  const double bounded = BoundedCount() - bounded_before;
  ASSERT_TRUE(outcome.ok());
  const SummaryOutcome& o = outcome.value();

  const WalkResult walk = WalkUnbounded(&walk_ds, options, threads);
  ASSERT_EQ(o.steps.size(), walk.steps.size());
  ASSERT_GT(o.steps.size(), 1u);
  for (size_t s = 0; s < o.steps.size(); ++s) {
    SCOPED_TRACE("step " + std::to_string(s));
    EXPECT_EQ(o.steps[s].merged_roots, walk.steps[s].roots);
    EXPECT_EQ(o.steps[s].summary, walk.steps[s].summary);
    EXPECT_EQ(DoubleBits(o.steps[s].distance),
              DoubleBits(walk.steps[s].distance));
    EXPECT_EQ(o.steps[s].size, walk.steps[s].size);
    EXPECT_EQ(DoubleBits(o.steps[s].score), DoubleBits(walk.steps[s].score));
  }
  if (w.w_taxonomy > 0.0 && family == Family::kWikipedia) {
    EXPECT_TRUE(walk.saw_taxonomy);
  }
  if (!obs::Enabled()) return;
  // Bounding is off when the bound is the same for every candidate; else
  // the run leaves exactly the candidates above the first folded score.
  const bool constant_bound = w.w_size == 0.0 && w.w_taxonomy == 0.0;
  EXPECT_EQ(bounded,
            constant_bound ? 0.0 : static_cast<double>(walk.above_first));
}

const Weights kWeights[] = {
    {0.01, 0.99, 0.0}, {0.3, 0.7, 0.0},  {0.7, 0.3, 0.0},
    {0.99, 0.01, 0.0}, {1.0, 0.0, 0.0},  // w_size = 0: bounding off
    {0.5, 0.5, 0.4},   {1.0, 0.0, 0.4},  // taxonomy terms in the bound
};

TEST(BoundedPricingTest, MovieLensRunsPickTheUnboundedWinners) {
  for (const Weights& w : kWeights) {
    for (int threads : {1, 8}) {
      CompareRunWithWalk(Family::kMovieLens, w, threads);
    }
  }
}

TEST(BoundedPricingTest, WikipediaRunsPickTheUnboundedWinners) {
  for (const Weights& w : kWeights) {
    for (int threads : {1, 8}) {
      CompareRunWithWalk(Family::kWikipedia, w, threads);
    }
  }
}

TEST(BoundedPricingTest, BoundsPruneWhenTheSizeTermDominates) {
  // Not vacuous: on the perfbench shape a size-heavy run leaves most
  // candidates unfolded.
  Dataset ds = Generate(Family::kMovieLens);
  SummarizerOptions options;
  options.w_dist = 0.3;
  options.w_size = 0.7;
  options.max_steps = 12;
  options.group_equivalent_first = false;
  options.phi = ds.phi;
  const WalkResult walk = WalkUnbounded(&ds, options, 1);
  EXPECT_GT(walk.above_first, 0u);
}

TEST(BoundedPricingTest, ZeroDistanceWeightPicksTheFullPricingWinner) {
  // With w_dist = 0 the score is the bound: every candidate tied with the
  // smallest bound is folded, and the taxonomy tie-break decides among
  // them as it does under full pricing.
  for (Family family : {Family::kMovieLens, Family::kWikipedia}) {
    for (int threads : {1, 8}) {
      CompareRunWithWalk(family, {0.0, 1.0, 0.0}, threads);
    }
  }
}

TEST(BoundedPricingTest, SmallestBoundLosesToARoundTwoMerge) {
  // SUM of ratings. U1 and U2 both rate M1 and M2 with 5: merging them
  // collapses two row pairs (the smallest candidate, so the smallest
  // bound) but cancelling either one moves both groups by 5. U3 and U4
  // both rate M3 with 1: merging them collapses one pair and moves M3 by
  // only 1. At w_dist = 0.9 the second merge wins in round 2.
  AnnotationRegistry registry;
  const DomainId user = registry.AddDomain("user");
  const DomainId movie = registry.AddDomain("movie");
  std::vector<AnnotationId> u;
  for (const char* name : {"U1", "U2", "U3", "U4"}) {
    u.push_back(registry.Add(user, name, kNoEntity).MoveValue());
  }
  std::vector<AnnotationId> m;
  for (const char* name : {"M1", "M2", "M3"}) {
    m.push_back(registry.Add(movie, name, kNoEntity).MoveValue());
  }
  auto p0 = NewAggregate(AggKind::kSum);
  auto rate = [&](int who, int what, double score) {
    p0->AddTerm(Monomial({u[who], m[what]}), m[what], AggValue{score, 1.0});
  };
  rate(0, 0, 5);
  rate(1, 0, 5);
  rate(0, 1, 5);
  rate(1, 1, 5);
  rate(2, 2, 1);
  rate(3, 2, 1);
  p0->Canonicalize();
  SemanticContext ctx;
  ctx.registry = &registry;
  ConstraintSet constraints;
  constraints.SetRule(user, std::make_unique<AnyMergeRule>("users"));
  CancelSingleAnnotation cls(std::vector<DomainId>{user});
  const std::vector<Valuation> valuations = cls.Generate(*p0, ctx);
  EuclideanValFunc vf;

  SummarizerOptions options;
  options.w_dist = 0.9;
  options.w_size = 0.1;
  options.max_steps = 1;
  options.group_equivalent_first = false;
  const int64_t original_size = p0->Size();

  // Full pricing of the first step.
  EnumeratedDistance walk_oracle(p0.get(), &registry, &vf, valuations);
  CandidateGenerator generator(&constraints, &ctx);
  CandidateSet candidates;
  MappingState state(&registry, options.phi);
  generator.Generate(*p0, state, options.candidates, &candidates);
  const AnnotationId scratch = registry.AddSummary(user, "~scratch");
  std::vector<MergeQuery> merges;
  for (const Candidate& c : candidates) {
    merges.push_back({candidates.roots(c), scratch});
  }
  PricingCache cache;
  std::vector<MergePrice> prices;
  walk_oracle.PriceMerges(*p0, state, merges, nullptr, &cache, &prices);
  size_t first = 0;
  size_t best = 0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const double bound =
        CandidateScore(options, 0.0, prices[i].size, candidates[i],
                       original_size);
    if (bound < CandidateScore(options, 0.0, prices[first].size,
                               candidates[first], original_size)) {
      first = i;
    }
    if (CandidateScore(options, prices[i].distance, prices[i].size,
                       candidates[i], original_size) <
        CandidateScore(options, prices[best].distance, prices[best].size,
                       candidates[best], original_size)) {
      best = i;
    }
  }
  const std::vector<AnnotationId> u12 = {u[0], u[1]};
  const std::vector<AnnotationId> u34 = {u[2], u[3]};
  ASSERT_EQ(std::vector<AnnotationId>(merges[first].roots.begin(),
                                      merges[first].roots.end()),
            u12);
  ASSERT_EQ(std::vector<AnnotationId>(merges[best].roots.begin(),
                                      merges[best].roots.end()),
            u34);

  EnumeratedDistance oracle(p0.get(), &registry, &vf, valuations);
  Summarizer summarizer(p0.get(), &registry, &ctx, &constraints, &oracle,
                        &valuations, options);
  auto outcome = summarizer.Run();
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.value().steps.size(), 1u);
  const StepRecord& step = outcome.value().steps[0];
  EXPECT_EQ(step.merged_roots, u34);
  EXPECT_EQ(DoubleBits(step.distance), DoubleBits(prices[best].distance));
  EXPECT_EQ(step.size, prices[best].size);
}

}  // namespace
}  // namespace prox
