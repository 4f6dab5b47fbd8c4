// Cross-module behaviors not covered by the per-module suites: taxonomy
// candidates on Wikipedia, DDP summarizer dynamics, two-domain clustering,
// and generator distribution sanity.

#include <gtest/gtest.h>

#include "baselines/clustering_summarizer.h"
#include "datasets/ddp.h"
#include "datasets/movielens.h"
#include "datasets/wikipedia.h"
#include "ir/agg_expr.h"
#include "summarize/candidates.h"
#include "summarize/summarizer.h"

namespace prox {
namespace {

TEST(WikipediaCandidatesTest, PageCandidatesCarryLcaNamesAndDistances) {
  WikipediaConfig config;
  config.num_users = 10;
  config.num_pages = 8;
  Dataset ds = WikipediaGenerator::Generate(config);
  CandidateGenerator gen(&ds.constraints, &ds.ctx);
  MappingState state(ds.registry.get(), ds.phi);
  auto candidates = gen.Generate(*ds.provenance, state, CandidateOptions{});
  ASSERT_FALSE(candidates.empty());

  bool any_page_candidate = false;
  for (const Candidate& c : candidates) {
    if (c.domain != ds.domain("page")) continue;
    any_page_candidate = true;
    // Summary names are taxonomy concepts; distances are Wu-Palmer based.
    EXPECT_TRUE(ds.ctx.taxonomy->Find(c.decision.name).ok())
        << c.decision.name;
    EXPECT_GE(c.decision.taxonomy_distance_sum,
              c.decision.taxonomy_distance_max - 1e-12);
    EXPECT_NE(c.decision.concept_id, kNoConcept);
  }
  EXPECT_TRUE(any_page_candidate);
}

TEST(DdpSummarizerTest, WdistControlsTradeoffAndRollbackWorks) {
  DdpConfig config;
  config.num_executions = 8;
  Dataset ds = DdpGenerator::Generate(config);
  auto run = [&](double w_dist, double target_dist) {
    Dataset fresh = DdpGenerator::Generate(config);
    auto valuations =
        fresh.valuation_class->Generate(*fresh.provenance, fresh.ctx);
    EnumeratedDistance oracle(fresh.provenance.get(), fresh.registry.get(),
                              fresh.val_func.get(), valuations);
    SummarizerOptions options;
    options.w_dist = w_dist;
    options.w_size = 1.0 - w_dist;
    options.target_dist = target_dist;
    options.max_steps = 10;
    options.phi = fresh.phi;
    Summarizer s(fresh.provenance.get(), fresh.registry.get(), &fresh.ctx,
                 &fresh.constraints, &oracle, &valuations, options);
    return s.Run().MoveValue();
  };

  SummaryOutcome size_greedy = run(0.0, 1.0);
  SummaryOutcome dist_greedy = run(1.0, 1.0);
  EXPECT_LE(dist_greedy.final_distance, size_greedy.final_distance + 1e-12);
  EXPECT_LE(size_greedy.final_size, ds.provenance->Size());

  // A tiny distance budget forces an early stop (possibly with rollback);
  // the result must respect the budget.
  SummaryOutcome bounded = run(0.0, 0.02);
  EXPECT_LT(bounded.final_distance, 0.02);
}

TEST(WikipediaClusteringTest, ClustersUsersAndPagesTogether) {
  WikipediaConfig config;
  config.num_users = 12;
  config.num_pages = 8;
  Dataset ds = WikipediaGenerator::Generate(config);
  auto valuations = ds.valuation_class->Generate(*ds.provenance, ds.ctx);
  EnumeratedDistance oracle(ds.provenance.get(), ds.registry.get(),
                            ds.val_func.get(), valuations);
  ClusteringOptions options;
  options.max_steps = 8;
  options.phi = ds.phi;
  ClusteringSummarizer cs(ds.provenance.get(), ds.registry.get(), &ds.ctx,
                          &ds.constraints, &oracle, options);
  for (const auto& [domain, features] : ds.features) {
    cs.SetFeatures(domain, features);
  }
  auto outcome = cs.Run();
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_GE(outcome.value().steps.size(), 1u);
  // Merges come from per-domain clusterings; every merged pair is
  // same-domain.
  for (const auto& [summary, members] : outcome.value().state.summaries()) {
    DomainId d = ds.registry->domain(summary);
    for (AnnotationId m : members) {
      EXPECT_EQ(ds.registry->domain(m), d);
    }
  }
}

TEST(MovieLensPopularityTest, ZipfSkewsRatingsTowardTopMovies) {
  MovieLensConfig config;
  config.num_users = 60;
  config.num_movies = 10;
  config.ratings_per_user = 4;
  config.zipf_skew = 1.0;
  Dataset ds = MovieLensGenerator::Generate(config);
  const ir::IrAggregateExpression* agg = ds.provenance->AsAggregate();
  ASSERT_NE(agg, nullptr);
  std::map<AnnotationId, int> per_movie;
  for (size_t i = 0; i < agg->num_terms(); ++i) {
    per_movie[agg->group(i)]++;
  }
  // Movie 0 (rank 0 in the Zipf order, first registered) collects more
  // ratings than the last movie.
  auto movies = ds.registry->AnnotationsInDomain(ds.domain("movie"));
  EXPECT_GT(per_movie[movies.front()], per_movie[movies.back()]);
}

TEST(DdpMachineDatasetTest, MachineModeSummarizes) {
  DdpConfig config;
  config.from_machine = true;
  config.num_executions = 10;
  config.seed = 21;
  Dataset ds = DdpGenerator::Generate(config);
  ASSERT_GT(ds.provenance->Size(), 0);
  auto valuations = ds.valuation_class->Generate(*ds.provenance, ds.ctx);
  EnumeratedDistance oracle(ds.provenance.get(), ds.registry.get(),
                            ds.val_func.get(), valuations);
  SummarizerOptions options;
  options.w_dist = 0.5;
  options.w_size = 0.5;
  options.max_steps = 6;
  options.phi = ds.phi;
  Summarizer s(ds.provenance.get(), ds.registry.get(), &ds.ctx,
               &ds.constraints, &oracle, &valuations, options);
  auto outcome = s.Run();
  ASSERT_TRUE(outcome.ok());
  EXPECT_LT(outcome.value().final_size, ds.provenance->Size());
}

}  // namespace
}  // namespace prox
