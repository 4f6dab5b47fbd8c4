// Bounded greedy steps (docs/KERNELS.md, *Bounded steps*). Summarizer::Run
// folds a candidate's distance only when the candidate's score at distance
// 0.0 — its size and taxonomy terms — does not exceed the score of the
// step's smallest-bound candidate. Here the naive Algorithm 1
// (testing/reference_summarizer.h), which prices every merge, runs next to
// Summarizer::Run on an identical dataset: at every step each candidate's
// bound must not exceed its score, and the run must commit the reference's
// winner at the reference's distance, size and score, bit for bit, at
// threads {1, 8}.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "datasets/movielens.h"
#include "datasets/wikipedia.h"
#include "obs/metrics.h"
#include "summarize/distance.h"
#include "summarize/summarizer.h"
#include "summarize/val_func.h"
#include "summarize/valuation_class.h"
#include "testing/fixtures.h"
#include "testing/reference_summarizer.h"

namespace prox {
namespace {

using testing_fixtures::NewAggregate;
using testing_reference::ReferencePrice;
using testing_reference::ReferenceRun;
using testing_reference::RunReference;

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

/// What bounding would have left out of the reference's fully priced
/// steps.
struct Bounds {
  /// Candidates whose bound exceeds the score of the step's smallest-bound
  /// candidate: what a bounded run leaves unfolded.
  uint64_t above_first = 0;
  /// Steps whose winner is not the smallest-bound candidate.
  int round_two_wins = 0;
  bool saw_taxonomy = false;
};

/// Runs the reference on `ds` and reads every step's bounds off its
/// priced candidates; each bound must not exceed its candidate's score.
ReferenceRun RunReferenceOn(Dataset* ds, const SummarizerOptions& options,
                            Bounds* bounds) {
  const std::vector<Valuation> valuations =
      ds->valuation_class->Generate(*ds->provenance, ds->ctx);
  ReferenceRun ref =
      RunReference(*ds->provenance, ds->registry.get(), ds->ctx,
                   ds->constraints, *ds->val_func, valuations, options);
  const int64_t original_size = std::max<int64_t>(ds->provenance->Size(), 1);
  for (size_t s = 0; s < ref.priced.size(); ++s) {
    SCOPED_TRACE("step " + std::to_string(s));
    const std::vector<ReferencePrice>& priced = ref.priced[s];
    std::vector<double> bound(priced.size());
    size_t first = 0;
    size_t winner = 0;
    for (size_t i = 0; i < priced.size(); ++i) {
      const ReferencePrice& p = priced[i];
      if (p.candidate.decision.taxonomy_distance_max != 0.0) {
        bounds->saw_taxonomy = true;
      }
      bound[i] =
          CandidateScore(options, 0.0, p.size, p.candidate, original_size);
      EXPECT_LE(bound[i], p.score) << "candidate " << i;
      if (bound[i] < bound[first]) first = i;
      if (p.roots == ref.outcome.steps[s].merged_roots) winner = i;
    }
    for (size_t i = 0; i < priced.size(); ++i) {
      if (bound[i] > priced[first].score) ++bounds->above_first;
    }
    if (winner != first) ++bounds->round_two_wins;
  }
  return ref;
}

struct Weights {
  double w_dist;
  double w_size;
  double w_taxonomy;
};

/// Runs Summarizer::Run and the reference on identical datasets and
/// compares every step.
void CompareRunWithReference(Family family, Weights w, int threads) {
  SCOPED_TRACE(std::string(family == Family::kMovieLens ? "MovieLens"
                                                        : "Wikipedia") +
               " w_dist=" + std::to_string(w.w_dist) +
               " w_size=" + std::to_string(w.w_size) +
               " w_taxonomy=" + std::to_string(w.w_taxonomy) +
               " threads=" + std::to_string(threads));
  Dataset run_ds = Generate(family);
  Dataset spec_ds = Generate(family);
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
                            run_ds.val_func.get(), valuations);
  Summarizer summarizer(run_ds.provenance.get(), run_ds.registry.get(),
                        &run_ds.ctx, &run_ds.constraints, &oracle,
                        &valuations, options);
  const double bounded_before = BoundedCount();
  auto outcome = summarizer.Run();
  const double bounded = BoundedCount() - bounded_before;
  ASSERT_TRUE(outcome.ok());
  const SummaryOutcome& o = outcome.value();

  Bounds bounds;
  const ReferenceRun ref = RunReferenceOn(&spec_ds, options, &bounds);
  const std::vector<StepRecord>& expected = ref.outcome.steps;
  ASSERT_EQ(o.steps.size(), expected.size());
  ASSERT_GT(o.steps.size(), 1u);
  for (size_t s = 0; s < o.steps.size(); ++s) {
    SCOPED_TRACE("step " + std::to_string(s));
    EXPECT_EQ(o.steps[s].merged_roots, expected[s].merged_roots);
    EXPECT_EQ(o.steps[s].summary, expected[s].summary);
    EXPECT_EQ(DoubleBits(o.steps[s].distance),
              DoubleBits(expected[s].distance));
    EXPECT_EQ(o.steps[s].size, expected[s].size);
    EXPECT_EQ(DoubleBits(o.steps[s].score), DoubleBits(expected[s].score));
  }
  if (w.w_taxonomy > 0.0 && family == Family::kWikipedia) {
    EXPECT_TRUE(bounds.saw_taxonomy);
  }
  if (!obs::Enabled()) return;
  // Bounding is off when the bound is the same for every candidate; else
  // the run leaves exactly the candidates above the first folded score.
  const bool constant_bound = w.w_size == 0.0 && w.w_taxonomy == 0.0;
  EXPECT_EQ(bounded,
            constant_bound ? 0.0 : static_cast<double>(bounds.above_first));
}

const Weights kWeights[] = {
    {0.01, 0.99, 0.0}, {0.3, 0.7, 0.0},  {0.7, 0.3, 0.0},
    {0.99, 0.01, 0.0}, {1.0, 0.0, 0.0},  // w_size = 0: bounding off
    {0.5, 0.5, 0.4},   {1.0, 0.0, 0.4},  // taxonomy terms in the bound
};

TEST(BoundedPricingTest, MovieLensRunsPickTheUnboundedWinners) {
  for (const Weights& w : kWeights) {
    for (int threads : {1, 8}) {
      CompareRunWithReference(Family::kMovieLens, w, threads);
    }
  }
}

TEST(BoundedPricingTest, WikipediaRunsPickTheUnboundedWinners) {
  for (const Weights& w : kWeights) {
    for (int threads : {1, 8}) {
      CompareRunWithReference(Family::kWikipedia, w, threads);
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
  Bounds bounds;
  RunReferenceOn(&ds, options, &bounds);
  EXPECT_GT(bounds.above_first, 0u);
}

TEST(BoundedPricingTest, ZeroDistanceWeightPicksTheFullPricingWinner) {
  // With w_dist = 0 the score is the bound: every candidate tied with the
  // smallest bound is folded, and the taxonomy tie-break decides among
  // them as it does under full pricing.
  for (Family family : {Family::kMovieLens, Family::kWikipedia}) {
    for (int threads : {1, 8}) {
      CompareRunWithReference(family, {0.0, 1.0, 0.0}, threads);
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

  // Full pricing of the first step, by the reference.
  const ReferenceRun ref = RunReference(*p0, &registry, ctx, constraints, vf,
                                        valuations, options);
  ASSERT_EQ(ref.priced.size(), 1u);
  const std::vector<ReferencePrice>& priced = ref.priced[0];
  size_t first = 0;
  size_t best = 0;
  for (size_t i = 0; i < priced.size(); ++i) {
    const double bound = CandidateScore(options, 0.0, priced[i].size,
                                        priced[i].candidate, original_size);
    if (bound < CandidateScore(options, 0.0, priced[first].size,
                               priced[first].candidate, original_size)) {
      first = i;
    }
    if (priced[i].score < priced[best].score) best = i;
  }
  const std::vector<AnnotationId> u12 = {u[0], u[1]};
  const std::vector<AnnotationId> u34 = {u[2], u[3]};
  ASSERT_EQ(priced[first].roots, u12);
  ASSERT_EQ(priced[best].roots, u34);

  EnumeratedDistance oracle(p0.get(), &registry, &vf, valuations);
  Summarizer summarizer(p0.get(), &registry, &ctx, &constraints, &oracle,
                        &valuations, options);
  auto outcome = summarizer.Run();
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.value().steps.size(), 1u);
  const StepRecord& step = outcome.value().steps[0];
  EXPECT_EQ(step.merged_roots, u34);
  EXPECT_EQ(DoubleBits(step.distance), DoubleBits(priced[best].distance));
  EXPECT_EQ(step.size, priced[best].size);
}

}  // namespace
}  // namespace prox
