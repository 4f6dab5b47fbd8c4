// Bit-identity of step pricing (EnumeratedDistance::ShapeMerges and
// FoldMerges). A greedy run is walked by hand: at every step each
// candidate merge is priced once through the step pricer — dirty groups
// only, terms carried across steps by the run's PricingCache — and once
// the naive way, by building the candidate with Apply and pricing it with
// the per-valuation spec (testing/reference_summarizer.h) and Size.
// Distance and size must have the same bits.
// The winner is then committed as Summarizer::Run commits it — at its
// priced distance, which must equal Distance on the committed expression —
// so later steps exercise the cross-step cache and the projected
// (group-key merged) layouts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "datasets/movielens.h"
#include "datasets/wikipedia.h"
#include "exec/thread_pool.h"
#include "ir/adopt.h"
#include "ir/agg_expr.h"
#include "ir/golden_run.h"
#include "ir/term_pool.h"
#include "kernels/metrics.h"
#include "obs/metrics.h"
#include "provenance/guard.h"
#include "summarize/candidates.h"
#include "summarize/distance.h"
#include "summarize/summarizer.h"
#include "summarize/val_func.h"
#include "testing/fixtures.h"
#include "testing/price_merges.h"
#include "testing/reference_summarizer.h"

namespace prox {
namespace {

using golden::DoubleBits;
using testing_fixtures::DrawSamples;
using testing_fixtures::MakeFoldOrderVisible;
using testing_fixtures::MovieFixture;
using testing_fixtures::NewAggregate;
using testing_fixtures::PriceMerges;

enum class VfKind { kEuclidean, kAbsoluteDifference, kDisagreement };

struct StepCase {
  AggKind agg;
  VfKind vf;
  bool sampled;  ///< drawn valuations (SampledValuations), else the class
};

const char* VfName(VfKind vf) {
  switch (vf) {
    case VfKind::kEuclidean:
      return "Euclidean";
    case VfKind::kAbsoluteDifference:
      return "AbsoluteDifference";
    case VfKind::kDisagreement:
      return "Disagreement";
  }
  return "";
}

/// How a walk is set up.
struct Walk {
  MovieLensConfig config;
  int steps = 4;
  int arity = 2;
  bool movie_merges = true;  ///< movies (group keys) may merge
  bool any_user_merge = false;
  int num_samples = 44;  ///< drawn set: five full chunks + a short one
  bool spec_reference = true;  ///< the per-valuation spec, else Distance
  bool fold_order_visible = false;  ///< MakeFoldOrderVisible the values
};

struct WalkResult {
  size_t priced = 0;        ///< candidates compared
  size_t movie_merges = 0;  ///< of which merged group keys
  uint64_t evictions = 0;
  double groups_reused = 0.0;
};

double CounterValue(const char* name) {
  return obs::MetricsRegistry::Default().Snapshot().CounterValue(name);
}

WalkResult WalkAndCompare(const StepCase& c, const Walk& walk, int threads) {
  WalkResult result;
  MovieLensConfig config = walk.config;
  config.agg = c.agg;
  Dataset ds = MovieLensGenerator::Generate(config);
  if (walk.fold_order_visible) MakeFoldOrderVisible(&ds);
  const std::vector<Valuation> valuations =
      c.sampled ? DrawSamples(*ds.provenance, ds.ctx, walk.num_samples)
                : ds.valuation_class->Generate(*ds.provenance, ds.ctx);
  EuclideanValFunc euclidean;
  AbsoluteDifferenceValFunc absolute;
  DisagreementValFunc disagreement;
  const ValFunc* vf = c.vf == VfKind::kEuclidean ? &euclidean
                      : c.vf == VfKind::kAbsoluteDifference
                          ? static_cast<const ValFunc*>(&absolute)
                          : &disagreement;
  EnumeratedDistance oracle(ds.provenance.get(), ds.registry.get(), vf,
                            valuations);
  const testing_reference::DistanceInputs spec{
      ds.provenance.get(), ds.registry.get(), vf, &valuations};
  auto reference = [&](const ProvenanceExpression& expr,
                       const MappingState& s) {
    return walk.spec_reference
               ? testing_reference::ReferenceDistance(spec, expr, s)
               : oracle.Distance(expr, s);
  };

  const DomainId movie = ds.domain("movie");
  if (walk.movie_merges) {
    ds.constraints.SetRule(movie, std::make_unique<AnyMergeRule>("movies"));
  }
  if (walk.any_user_merge) {
    ds.constraints.SetRule(ds.domain("user"),
                           std::make_unique<AnyMergeRule>("users"));
  }
  CandidateGenerator generator(&ds.constraints, &ds.ctx);
  CandidateOptions candidate_options;
  candidate_options.arity = walk.arity;
  MappingState state(ds.registry.get(), ds.phi);
  std::unique_ptr<ProvenanceExpression> current =
      ir::Adopt(*ds.provenance, std::make_shared<ir::TermPool>());
  exec::PoolRef pool(threads);
  PricingCache cache;
  CandidateSet candidates;
  const double reused_before =
      CounterValue("prox_summarize_groups_reused_total");

  for (int step = 0; step < walk.steps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    generator.Generate(*current, state, candidate_options, &candidates);
    if (candidates.empty()) break;
    std::map<DomainId, AnnotationId> scratch;
    std::vector<MergeQuery> merges;
    for (const Candidate& cand : candidates) {
      if (scratch.count(cand.domain) == 0) {
        scratch[cand.domain] = ds.registry->AddSummary(cand.domain, "~scratch");
      }
      merges.push_back(
          {candidates.roots(cand), scratch.at(cand.domain), cand.prev});
    }

    const uint64_t batch_before = kernels::BatchEvalsForTesting();
    std::vector<MergePrice> prices;
    // Priced through the dirty-group path, never materialized, and counted
    // once per valuation per candidate like a batched Distance call.
    EXPECT_TRUE(PriceMerges(&oracle, *current, state, merges, pool.pool(),
                            &cache, &prices));
    if (prices.size() != candidates.size()) {
      ADD_FAILURE() << "one price per merge expected";
      return result;
    }
    EXPECT_EQ(kernels::BatchEvalsForTesting() - batch_before,
              valuations.size() * candidates.size());

    size_t best = 0;
    for (size_t i = 0; i < candidates.size(); ++i) {
      const std::vector<AnnotationId> roots(merges[i].roots.begin(),
                                            merges[i].roots.end());
      MappingState tentative = state;
      tentative.Merge(roots, merges[i].scratch);
      Homomorphism h;
      for (AnnotationId root : roots) {
        h.Set(root, merges[i].scratch);
      }
      const std::unique_ptr<ProvenanceExpression> expr = current->Apply(h);
      const double expected = reference(*expr, tentative);
      EXPECT_EQ(DoubleBits(prices[i].distance), DoubleBits(expected))
          << "candidate " << i << ": step pricing " << prices[i].distance
          << " vs reference " << expected;
      EXPECT_EQ(prices[i].size, expr->Size()) << "candidate " << i;
      ++result.priced;
      if (candidates[i].domain == movie) ++result.movie_merges;
      const double score = prices[i].distance +
                           static_cast<double>(prices[i].size) / 1000.0;
      const double best_score =
          prices[best].distance +
          static_cast<double>(prices[best].size) / 1000.0;
      if (score < best_score) best = i;
    }

    const Candidate& winner = candidates[best];
    const AnnotationId summary =
        ds.registry->AddSummary(winner.domain, "winner");
    const std::vector<AnnotationId> winner_roots(merges[best].roots.begin(),
                                                 merges[best].roots.end());
    state.Merge(winner_roots, summary);
    Homomorphism commit;
    for (AnnotationId root : winner_roots) commit.Set(root, summary);
    current = current->Apply(commit);
    // Summarizer::Run records the step at the winner's priced distance.
    EXPECT_EQ(DoubleBits(oracle.Distance(*current, state)),
              DoubleBits(prices[best].distance));
  }
  result.evictions = cache.evictions();
  result.groups_reused =
      CounterValue("prox_summarize_groups_reused_total") - reused_before;
  return result;
}

MovieLensConfig SmallMovieLens() {
  MovieLensConfig config;
  config.num_users = 10;
  config.num_movies = 5;
  config.ratings_per_user = 3;
  return config;
}

std::string CaseName(const ::testing::TestParamInfo<StepCase>& info) {
  return std::string(AggKindToString(info.param.agg)) + "_" +
         VfName(info.param.vf) +
         (info.param.sampled ? "_Sampled" : "_Enumerated");
}

std::vector<StepCase> AllCases() {
  std::vector<StepCase> cases;
  for (AggKind agg : {AggKind::kMax, AggKind::kMin, AggKind::kSum,
                      AggKind::kCount, AggKind::kAvg}) {
    for (VfKind vf : {VfKind::kEuclidean, VfKind::kAbsoluteDifference,
                      VfKind::kDisagreement}) {
      for (bool sampled : {false, true}) {
        cases.push_back({agg, vf, sampled});
      }
    }
  }
  return cases;
}

class StepPricingTest : public ::testing::TestWithParam<StepCase> {};

TEST_P(StepPricingTest, EveryCandidateOfEveryStepMatchesTheReference) {
  Walk walk;
  walk.config = SmallMovieLens();
  for (int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const WalkResult r = WalkAndCompare(GetParam(), walk, threads);
    EXPECT_GT(r.priced, 0u);
    EXPECT_GT(r.movie_merges, 0u);  // group-key merges were priced too
    EXPECT_GT(r.groups_reused, 0.0);  // later steps reused cached terms
  }
}

INSTANTIATE_TEST_SUITE_P(AggValFuncOracle, StepPricingTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

TEST(StepPricingWalkTest, GuardedMovieLens) {
  Walk walk;
  walk.config = SmallMovieLens();
  walk.config.with_guards = true;
  for (AggKind agg : {AggKind::kSum, AggKind::kAvg, AggKind::kMax}) {
    for (int threads : {1, 8}) {
      SCOPED_TRACE(std::string(AggKindToString(agg)) +
                   " threads=" + std::to_string(threads));
      EXPECT_GT(WalkAndCompare({agg, VfKind::kEuclidean, false}, walk, threads)
                    .priced,
                0u);
    }
  }
}

TEST(StepPricingWalkTest, ArityThreeMergesFoldCollidingRowsInSourceOrder) {
  // Three users rating the same movies: a 3-way merge makes three rows of
  // one group collide, and the merged row's value is their fold in source
  // order — observable under SUM and AVG, whose float adds do not
  // reassociate.
  Walk walk;
  walk.config = SmallMovieLens();
  walk.config.num_users = 8;
  walk.config.num_movies = 3;
  walk.arity = 3;
  walk.steps = 3;
  walk.any_user_merge = true;
  for (AggKind agg : {AggKind::kSum, AggKind::kAvg, AggKind::kCount}) {
    for (int threads : {1, 8}) {
      SCOPED_TRACE(std::string(AggKindToString(agg)) +
                   " threads=" + std::to_string(threads));
      EXPECT_GT(WalkAndCompare({agg, VfKind::kAbsoluteDifference, false}, walk,
                               threads)
                    .priced,
                0u);
    }
  }
}

Walk FoldOrderWalk() {
  // Several user merges: a summary user sorts after the movie ids, so a
  // merged row moves to the end of its group, and a later merge of that
  // summary with a raw user collides rows from the middle and the end of
  // a group while the kept rows between them fold in place.
  Walk walk;
  walk.config = SmallMovieLens();
  walk.config.num_users = 16;
  walk.config.num_movies = 3;
  walk.movie_merges = false;
  walk.any_user_merge = true;
  walk.steps = 5;
  walk.fold_order_visible = true;
  return walk;
}

TEST(StepPricingWalkTest, FoldOrderShowsInTheBits) {
  const Walk walk = FoldOrderWalk();
  for (AggKind agg :
       {AggKind::kSum, AggKind::kAvg, AggKind::kMax, AggKind::kMin}) {
    for (int threads : {1, 8}) {
      SCOPED_TRACE(std::string(AggKindToString(agg)) +
                   " threads=" + std::to_string(threads));
      EXPECT_GT(WalkAndCompare({agg, VfKind::kAbsoluteDifference, false}, walk,
                               threads)
                    .priced,
                0u);
    }
  }
}

TEST(StepPricingWalkTest, FoldsResumeFromStridedCheckpoints) {
  // Enough samples that one checkpoint per row and chunk overflows
  // kMaxCheckpointBytes: the step keeps every k-th row's fold state, and
  // a fold resumes up to k - 1 rows in front of its first changed row.
  Walk walk = FoldOrderWalk();
  walk.num_samples = 4096;
  walk.steps = 3;
  walk.spec_reference = false;  // the batched Distance, for speed
  MovieLensConfig config = walk.config;
  const Dataset ds = MovieLensGenerator::Generate(config);
  const size_t chunks = (static_cast<size_t>(walk.num_samples) +
                         kernels::kMaxLanes - 1) /
                        kernels::kMaxLanes;
  ASSERT_GT(ds.provenance->AsAggregate()->num_terms() * chunks *
                sizeof(kernels::AggAccumulator),
            EnumeratedDistance::kMaxCheckpointBytes);
  for (AggKind agg : {AggKind::kSum, AggKind::kMax}) {
    for (int threads : {1, 8}) {
      SCOPED_TRACE(std::string(AggKindToString(agg)) +
                   " threads=" + std::to_string(threads));
      EXPECT_GT(
          WalkAndCompare({agg, VfKind::kEuclidean, true}, walk, threads).priced,
          0u);
    }
  }
}

TEST(StepPricingWalkTest, EvictedCandidatesPriceTheirGroupsAfresh) {
  // Thousands of samples make every cached group term large, so this
  // run's entries overflow the cache's byte cap: the candidates past it
  // are evicted and price all of their dirty groups at the next step.
  Walk walk;
  walk.config = SmallMovieLens();
  walk.config.num_users = 30;
  walk.config.num_movies = 4;
  walk.any_user_merge = true;
  walk.num_samples = 2048;
  walk.steps = 2;
  walk.spec_reference = false;  // the batched Distance, for speed
  const WalkResult r =
      WalkAndCompare({AggKind::kSum, VfKind::kEuclidean, true}, walk, 1);
  EXPECT_GT(r.evictions, 0u);
  EXPECT_GT(r.priced, 800u);  // both steps, the second after evictions
}

TEST(StepPricingRowsTest, FoldResumesAtTheFirstChangedRow) {
  // U3 rates Match Point last, and U4 (registered after the movies, so it
  // sorts after them) rates Blue Jasmine last: merging them changes only
  // the last row of each group. Each fold resumes in front of that row,
  // so pricing the merge folds two rows, not the six of both groups.
  MovieFixture fx;
  const AnnotationId u4 =
      fx.registry.Add(fx.user_domain, "U4", kNoEntity).MoveValue();
  fx.AddRating(fx.u1, fx.blue_jasmine, 2);  // a second row in front of U4's
  fx.AddRating(u4, fx.blue_jasmine, 1);
  fx.Rebuild();
  std::vector<Valuation> valuations;
  for (AnnotationId a : {fx.u1, fx.u2, fx.u3, u4}) {
    valuations.emplace_back(std::vector<AnnotationId>{a});
  }
  AbsoluteDifferenceValFunc vf;
  EnumeratedDistance oracle(fx.p0.get(), &fx.registry, &vf, valuations);
  const std::vector<AnnotationId> roots = {fx.u3, u4};
  const AnnotationId scratch = fx.registry.AddSummary(fx.user_domain, "~t");
  MappingState state(&fx.registry, PhiConfig{});
  PricingCache cache;
  std::vector<MergePrice> prices;
  const double refolded = CounterValue("prox_summarize_rows_refolded_total");
  const double priced = CounterValue("prox_summarize_groups_priced_total");
  PriceMerges(&oracle, *fx.p0, state, {{roots, scratch}}, nullptr, &cache,
              &prices);
  EXPECT_EQ(CounterValue("prox_summarize_groups_priced_total") - priced, 2.0);
  EXPECT_EQ(CounterValue("prox_summarize_rows_refolded_total") - refolded,
            2.0);

  MappingState tentative = state;
  tentative.Merge(roots, scratch);
  Homomorphism h;
  for (AnnotationId r : roots) h.Set(r, scratch);
  const std::unique_ptr<ProvenanceExpression> cand = fx.p0->Apply(h);
  ASSERT_EQ(prices.size(), 1u);
  EXPECT_EQ(DoubleBits(prices[0].distance),
            DoubleBits(oracle.Distance(*cand, tentative)));
  EXPECT_EQ(prices[0].size, cand->Size());
}

TEST(StepPricingRowsTest, MergedGroupFoldsInKeyOrder) {
  // Movies C and D each hold one row that A occurs in, so merging A and B
  // dirties both; t, registered last, sorts after every movie. Under
  // "cancel A" the merge revives A's rows: C and D each add 2^-53 to the
  // one lane's error and t's merged group adds |(0 + 0.5) - (1 + 0.5)| = 1.
  // In key order (C, D, t) the sum is 1 + 2^-52; with t's term first, each
  // 2^-53 rounds away and it is 1.
  AnnotationRegistry registry;
  const DomainId user = registry.AddDomain("user");
  const DomainId movie = registry.AddDomain("movie");
  auto add = [&](DomainId d, const char* name) {
    return registry.Add(d, name, kNoEntity).MoveValue();
  };
  const AnnotationId u1 = add(user, "U1");
  const AnnotationId u2 = add(user, "U2");
  const AnnotationId u3 = add(user, "U3");
  const AnnotationId u4 = add(user, "U4");
  const AnnotationId a = add(movie, "A");
  const AnnotationId b = add(movie, "B");
  const AnnotationId c = add(movie, "C");
  const AnnotationId d = add(movie, "D");
  constexpr double kTiny = 0x1p-53;
  auto p0 = NewAggregate(AggKind::kSum);
  p0->AddTerm(Monomial{u1, a}, a, AggValue{1.0, 1.0});
  p0->AddTerm(Monomial{u2, b}, b, AggValue{0.5, 1.0});
  p0->AddTerm(Monomial{u3, a}, c, AggValue{kTiny, 1.0});
  p0->AddTerm(Monomial{u4, a}, d, AggValue{kTiny, 1.0});
  p0->Canonicalize();
  std::vector<Valuation> valuations;
  valuations.emplace_back(std::vector<AnnotationId>{a});
  AbsoluteDifferenceValFunc vf;
  EnumeratedDistance oracle(p0.get(), &registry, &vf, valuations);
  const std::vector<AnnotationId> roots = {a, b};
  const AnnotationId t = registry.AddSummary(movie, "~t");
  MappingState state(&registry, PhiConfig{});
  PricingCache cache;
  std::vector<MergePrice> prices;
  ASSERT_TRUE(PriceMerges(&oracle, *p0, state, {{roots, t}}, nullptr, &cache,
                          &prices));
  ASSERT_EQ(prices.size(), 1u);

  const double key_order = ((kTiny + kTiny) + 1.0) / oracle.max_error();
  const double merged_first = ((1.0 + kTiny) + kTiny) / oracle.max_error();
  ASSERT_NE(DoubleBits(key_order), DoubleBits(merged_first));
  EXPECT_EQ(DoubleBits(prices[0].distance), DoubleBits(key_order));

  MappingState tentative = state;
  tentative.Merge(roots, t);
  Homomorphism h;
  for (AnnotationId r : roots) h.Set(r, t);
  const std::unique_ptr<ProvenanceExpression> cand = p0->Apply(h);
  EXPECT_EQ(DoubleBits(prices[0].distance),
            DoubleBits(testing_reference::ReferenceDistance(
                {p0.get(), &registry, &vf, &valuations}, *cand, tentative)));
}

// MovedSize counts the factors LowerMoved emits without lowering: the
// shape pass sizes every merge with it, and only folded merges lower.

/// The size of LowerMoved's rows for `rows` of `expr`.
int64_t LoweredSize(const ir::IrAggregateExpression& expr,
                    const std::vector<uint32_t>& rows,
                    const std::vector<AnnotationId>& roots,
                    AnnotationId target, uint32_t begin, uint32_t end) {
  ir::MovedRows out;
  expr.LowerMoved(rows.data(), rows.size(), roots.data(), roots.size(),
                  target, begin, end, &out);
  int64_t size = 0;
  for (const kernels::AggBatchRow& r : out.rows) {
    size += r.mono.len + r.guard_mono.len;
  }
  return size;
}

/// Compares MovedSize with LowerMoved on every unit the merge of `roots`
/// (sorted) dirties in `expr`: the moved rows of each group it keeps, and
/// every row of the groups keyed by a root. Returns the units compared.
size_t CompareUnits(const ir::IrAggregateExpression& expr,
                    const std::vector<AnnotationId>& roots,
                    AnnotationId target) {
  auto is_root = [&](AnnotationId a) {
    return std::binary_search(roots.begin(), roots.end(), a);
  };
  const uint32_t n = static_cast<uint32_t>(expr.num_terms());
  std::vector<uint32_t> merged;
  size_t units = 0;
  for (uint32_t begin = 0; begin < n;) {
    uint32_t end = begin;
    while (end < n && expr.group(end) == expr.group(begin)) ++end;
    const bool key = is_root(expr.group(begin));
    std::vector<uint32_t> moved;
    for (uint32_t i = begin; i < end; ++i) {
      const ir::AggTermView t = expr.term(i);
      if (key) {
        merged.push_back(i);
      } else if (std::any_of(t.mono, t.mono + t.mono_len, is_root) ||
                 std::any_of(t.guard_mono, t.guard_mono + t.guard_len,
                             is_root)) {
        moved.push_back(i);
      }
    }
    if (!moved.empty()) {
      EXPECT_EQ(expr.MovedSize(moved.data(), moved.size(), roots.data(),
                               roots.size()),
                LoweredSize(expr, moved, roots, target, begin, end))
          << "group " << expr.group(begin) << " roots " << roots[0] << ","
          << roots[1];
      ++units;
    }
    begin = end;
  }
  if (!merged.empty()) {
    EXPECT_EQ(
        expr.MovedSize(merged.data(), merged.size(), roots.data(),
                       roots.size()),
        LoweredSize(expr, merged, roots, target, 0, 0))
        << "merged group, roots " << roots[0] << "," << roots[1];
    ++units;
  }
  return units;
}

/// Walks five greedy steps over `ds`; at each, compares every unit of
/// every pair of the current annotations and of 300 seeded triples.
void CompareUnitsOnAWalk(Dataset ds) {
  const std::vector<Valuation> valuations =
      ds.valuation_class->Generate(*ds.provenance, ds.ctx);
  EnumeratedDistance oracle(ds.provenance.get(), ds.registry.get(),
                            ds.val_func.get(), valuations);
  CandidateGenerator generator(&ds.constraints, &ds.ctx);
  MappingState state(ds.registry.get(), ds.phi);
  std::unique_ptr<ProvenanceExpression> current =
      ir::Adopt(*ds.provenance, std::make_shared<ir::TermPool>());
  PricingCache cache;
  CandidateSet candidates;
  std::mt19937 rng(23);
  size_t merged_units = 0;
  for (int step = 0; step <= 4; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const ir::IrAggregateExpression& expr = *current->AsAggregate();
    std::vector<AnnotationId> anns;
    expr.CollectAnnotations(&anns);
    ASSERT_GE(anns.size(), 3u);
    const AnnotationId target =
        ds.registry->AddSummary(ds.registry->domain(anns[0]), "~t");
    size_t units = 0;
    for (size_t a = 0; a < anns.size(); ++a) {
      for (size_t b = a + 1; b < anns.size(); ++b) {
        units += CompareUnits(expr, {anns[a], anns[b]}, target);
      }
    }
    std::uniform_int_distribution<size_t> pick(0, anns.size() - 1);
    for (int k = 0; k < 300; ++k) {
      std::vector<AnnotationId> roots = {anns[pick(rng)], anns[pick(rng)],
                                         anns[pick(rng)]};
      std::sort(roots.begin(), roots.end());
      if (std::unique(roots.begin(), roots.end()) != roots.end()) continue;
      units += CompareUnits(expr, roots, target);
    }
    EXPECT_GT(units, anns.size());
    for (const AnnotationId g : expr.Groups()) {
      merged_units += std::binary_search(anns.begin(), anns.end(), g);
    }

    // The step's winner, picked as the step pricing walk picks it.
    generator.Generate(*current, state, CandidateOptions{}, &candidates);
    if (candidates.empty()) break;
    std::map<DomainId, AnnotationId> scratch;
    std::vector<MergeQuery> merges;
    for (const Candidate& cand : candidates) {
      if (scratch.count(cand.domain) == 0) {
        scratch[cand.domain] = ds.registry->AddSummary(cand.domain, "~scratch");
      }
      merges.push_back(
          {candidates.roots(cand), scratch.at(cand.domain), cand.prev});
    }
    std::vector<MergePrice> prices;
    PriceMerges(&oracle, *current, state, merges, nullptr, &cache, &prices);
    size_t best = 0;
    auto score = [&](size_t i) {
      return prices[i].distance + static_cast<double>(prices[i].size) / 1000.0;
    };
    for (size_t i = 1; i < prices.size(); ++i) {
      if (score(i) < score(best)) best = i;
    }
    const std::vector<AnnotationId> roots(merges[best].roots.begin(),
                                          merges[best].roots.end());
    const AnnotationId summary =
        ds.registry->AddSummary(candidates[best].domain, "winner");
    state.Merge(roots, summary);
    Homomorphism commit;
    for (AnnotationId root : roots) commit.Set(root, summary);
    current = current->Apply(commit);
  }
  EXPECT_GT(merged_units, 0u);  // group keys were among the roots
}

TEST(MovedSizeTest, CountsWhatLowerMovedEmitsAlongGreedyWalks) {
  MovieLensConfig movielens;  // the perfbench shape
  movielens.num_users = 25;
  movielens.num_movies = 8;
  movielens.seed = 99;
  CompareUnitsOnAWalk(MovieLensGenerator::Generate(movielens));
  WikipediaConfig wikipedia;
  wikipedia.num_users = 10;
  wikipedia.num_pages = 6;
  CompareUnitsOnAWalk(WikipediaGenerator::Generate(wikipedia));
}

TEST(MovedSizeTest, HandBuiltRowsMergeExactlyWhenTheirMappedKeysAreEqual) {
  // Roots 1 and 2 map to 99; 5 and 6 are other factors, 10 and 11 groups.
  const std::vector<AnnotationId> roots = {1, 2};
  const AnnotationId t = 99;
  auto guard = [](Monomial body, double scalar, CompareOp op,
                  double threshold) {
    return std::optional<Guard>(Guard(std::move(body), scalar, op, threshold));
  };
  struct Case {
    const char* name;
    std::vector<std::pair<Monomial, std::optional<Guard>>> rows;
    int64_t expected;  // the size after the merge
  };
  const Case cases[] = {
      // 1·2·5, 1·1·5 and 2·2·5 all map to t·t·5; 1·5·6 and 2·5 (t·5:
      // the same non-root factors, one root fewer) stay apart.
      {"two roots in one monomial",
       {{Monomial{1, 2, 5}, std::nullopt},
        {Monomial{1, 1, 5}, std::nullopt},
        {Monomial{2, 2, 5}, std::nullopt},
        {Monomial{1, 5, 6}, std::nullopt},
        {Monomial{2, 5}, std::nullopt}},
       8},
      // The roots sit in the guard bodies: 5·[1·6 > 2] and 5·[2·6 > 2]
      // merge; 5·[1·5 > 2] differs in a non-root factor.
      {"a root in a guard body",
       {{Monomial{5}, guard(Monomial{1, 6}, 3.0, CompareOp::kGt, 2.0)},
        {Monomial{5}, guard(Monomial{2, 6}, 3.0, CompareOp::kGt, 2.0)},
        {Monomial{5}, guard(Monomial{1, 5}, 3.0, CompareOp::kGt, 2.0)}},
       6},
      {"guards that differ only in op, threshold or scalar",
       {{Monomial{1}, guard(Monomial{6}, 3.0, CompareOp::kGt, 2.0)},
        {Monomial{2}, guard(Monomial{6}, 3.0, CompareOp::kGe, 2.0)},
        {Monomial{1, 5}, guard(Monomial{6}, 3.0, CompareOp::kGt, 2.0)},
        {Monomial{2, 5}, guard(Monomial{6}, 3.0, CompareOp::kGt, 2.5)},
        {Monomial{2, 6}, guard(Monomial{6}, 3.0, CompareOp::kGt, 2.0)},
        {Monomial{1, 6}, guard(Monomial{6}, 4.0, CompareOp::kGt, 2.0)}},
       16},
      // +0.0 and -0.0 compare equal, as scalars and as thresholds.
      {"guard scalars +0.0 and -0.0",
       {{Monomial{1}, guard(Monomial{6}, 0.0, CompareOp::kGe, 0.0)},
        {Monomial{2}, guard(Monomial{6}, -0.0, CompareOp::kGe, 0.0)},
        {Monomial{1, 5}, guard(Monomial{6}, 1.0, CompareOp::kLt, 0.0)},
        {Monomial{2, 5}, guard(Monomial{6}, 1.0, CompareOp::kLt, -0.0)}},
       5},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    for (const bool root_group : {false, true}) {
      SCOPED_TRACE(root_group ? "group keys 1 and 2" : "group 11");
      // The moved rows sit in group 11, or alternate between the
      // root-keyed groups 1 and 2, which both map to t's group; group 10
      // keeps one row the merge does not move.
      auto expr = NewAggregate(AggKind::kSum);
      expr->AddTerm(Monomial{5, 6}, 10, AggValue{1.0, 1.0});
      for (size_t i = 0; i < c.rows.size(); ++i) {
        const AnnotationId group =
            root_group ? roots[i % roots.size()] : AnnotationId{11};
        expr->AddTerm(c.rows[i].first, group, AggValue{1.0, 1.0},
                      c.rows[i].second);
      }
      expr->Canonicalize();
      ASSERT_EQ(expr->num_terms(), c.rows.size() + 1);  // none merged yet
      std::vector<uint32_t> moved;
      for (uint32_t i = 0; i < expr->num_terms(); ++i) {
        if (expr->group(i) != 10) moved.push_back(i);
      }
      const uint32_t begin = root_group ? 0 : moved.front();
      const uint32_t end = root_group ? 0 : moved.back() + 1;
      EXPECT_EQ(LoweredSize(*expr, moved, roots, t, begin, end), c.expected);
      EXPECT_EQ(expr->MovedSize(moved.data(), moved.size(), roots.data(),
                                roots.size()),
                c.expected);
      // Every pair and single row too: the one- and two-row fast paths.
      for (size_t a = 0; a < moved.size(); ++a) {
        for (size_t b = a; b < moved.size(); ++b) {
          const std::vector<uint32_t> sub =
              a == b ? std::vector<uint32_t>{moved[a]}
                     : std::vector<uint32_t>{moved[a], moved[b]};
          EXPECT_EQ(
              expr->MovedSize(sub.data(), sub.size(), roots.data(),
                              roots.size()),
              LoweredSize(*expr, sub, roots, t, begin, end))
              << "rows " << moved[a] << "," << moved[b];
        }
      }
    }
  }
}

// Carried steps (docs/KERNELS.md, *Carried steps*): a run's CandidateSet
// and PricingCache carry the last step's candidates and merge sizes into a
// step whose state is one merge past it. At every step of a greedy walk the
// carried set must equal a fresh Generate — roots, verdicts and order —
// each candidate's `prev` must name the previous step's candidate with the
// same roots (-1 on a step that is not carried), and every size and
// distance must equal what a fresh cache shapes and folds.

struct CarryWalk {
  int steps = 6;
  CandidateOptions options;
  /// At odd steps the best candidate of this domain wins, when it has one
  /// (group-key merges: the next step's summary keys a group).
  std::optional<DomainId> forced_domain;
  /// Warm start: the state replays the first two merges of a Summarizer run.
  bool warm = false;
  /// After committing this step, roll back to the state before it and go on.
  int rollback_at = -1;
};

/// `ds` with its rows' monomials cut down to their user: a merge of users
/// then changes movie groups whose keys occur in no row, so only the
/// group-key half of the touched rule sees them, and a movie merge's size
/// change counts the users its two movies share.
void UsersOnlyMonomials(Dataset* ds) {
  const ir::IrAggregateExpression& src = *ds->provenance->AsAggregate();
  const DomainId user = ds->domain("user");
  auto out = NewAggregate(src.agg());
  for (uint32_t i = 0; i < src.num_terms(); ++i) {
    const ir::AggTermView t = src.term(i);
    std::vector<AnnotationId> factors;
    for (size_t k = 0; k < t.mono_len; ++k) {
      if (ds->registry->domain(t.mono[k]) == user) {
        factors.push_back(t.mono[k]);
      }
    }
    std::optional<Guard> guard;
    if (t.has_guard) {
      guard = Guard(Monomial(std::vector<AnnotationId>(
                        t.guard_mono, t.guard_mono + t.guard_len)),
                    t.guard_scalar, t.guard_op, t.guard_threshold);
    }
    out->AddTerm(Monomial(std::move(factors)), t.group, t.value, guard);
  }
  out->Canonicalize();
  ds->provenance = std::move(out);
}

/// Walks `walk` over `ds`, comparing every step with a fresh one; returns
/// the merges whose size the run's cache carried.
double WalkCarried(Dataset* ds, const CarryWalk& walk, int threads) {
  const std::vector<Valuation> valuations =
      ds->valuation_class->Generate(*ds->provenance, ds->ctx);
  EnumeratedDistance oracle(ds->provenance.get(), ds->registry.get(),
                            ds->val_func.get(), valuations);
  CandidateGenerator generator(&ds->constraints, &ds->ctx);
  MappingState state(ds->registry.get(), ds->phi);
  std::unique_ptr<ProvenanceExpression> current =
      ir::Adopt(*ds->provenance, std::make_shared<ir::TermPool>());
  if (walk.warm) {
    SummarizerOptions options;
    options.max_steps = 2;
    options.candidates = walk.options;
    const std::vector<std::pair<AnnotationId, std::vector<AnnotationId>>>
        seed = Summarizer(ds->provenance.get(), ds->registry.get(), &ds->ctx,
                          &ds->constraints, &oracle, &valuations, options)
                   .Run()
                   .MoveValue()
                   .state.summaries();
    EXPECT_FALSE(seed.empty());
    state.Replay(seed);
    current = current->Apply(state.cumulative());
  }
  exec::PoolRef pool(threads);
  PricingCache cache;
  CandidateSet candidates;
  const double carried_before =
      CounterValue("prox_summarize_merges_carried_total");
  // The previous step's candidates' roots, when this step carries it.
  std::vector<std::vector<AnnotationId>> prev_roots;
  std::unique_ptr<ProvenanceExpression> prev_expr;
  MappingState prev_state = state;

  for (int step = 0; step < walk.steps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    generator.Generate(*current, state, walk.options, &candidates);
    CandidateSet fresh;
    generator.Generate(*current, state, walk.options, &fresh);
    if (candidates.size() != fresh.size()) {
      ADD_FAILURE() << candidates.size() << " carried candidates vs "
                    << fresh.size() << " fresh";
      break;
    }
    std::vector<std::vector<AnnotationId>> roots(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      const Candidate& c = candidates[i];
      const Candidate& f = fresh[i];
      const std::span<const AnnotationId> r = candidates.roots(c);
      roots[i].assign(r.begin(), r.end());
      const std::span<const AnnotationId> fr = fresh.roots(f);
      EXPECT_EQ(roots[i], std::vector<AnnotationId>(fr.begin(), fr.end()))
          << "candidate " << i;
      EXPECT_EQ(c.domain, f.domain) << "candidate " << i;
      EXPECT_EQ(c.decision.allowed, f.decision.allowed);
      EXPECT_EQ(c.decision.name, f.decision.name) << "candidate " << i;
      EXPECT_EQ(DoubleBits(c.decision.taxonomy_distance_max),
                DoubleBits(f.decision.taxonomy_distance_max));
      EXPECT_EQ(DoubleBits(c.decision.taxonomy_distance_sum),
                DoubleBits(f.decision.taxonomy_distance_sum));
      EXPECT_EQ(c.decision.concept_id, f.decision.concept_id);
      const auto same = std::find(prev_roots.begin(), prev_roots.end(),
                                  roots[i]);
      const int32_t expected_prev =
          same == prev_roots.end()
              ? -1
              : static_cast<int32_t>(same - prev_roots.begin());
      EXPECT_EQ(c.prev, expected_prev) << "candidate " << i;
      EXPECT_EQ(f.prev, -1);
    }
    if (candidates.empty()) break;

    std::map<DomainId, AnnotationId> scratch;
    std::vector<MergeQuery> merges;
    std::vector<MergeQuery> fresh_merges;
    for (const Candidate& cand : candidates) {
      if (scratch.count(cand.domain) == 0) {
        scratch[cand.domain] = ds->registry->AddSummary(cand.domain, "~scratch");
      }
      merges.push_back(
          {candidates.roots(cand), scratch.at(cand.domain), cand.prev});
      fresh_merges.push_back({candidates.roots(cand), scratch.at(cand.domain)});
    }
    std::vector<MergePrice> prices;
    EXPECT_TRUE(PriceMerges(&oracle, *current, state, merges, pool.pool(),
                            &cache, &prices));
    PricingCache fresh_cache;
    std::vector<MergePrice> fresh_prices;
    PriceMerges(&oracle, *current, state, fresh_merges, pool.pool(),
                &fresh_cache, &fresh_prices);
    size_t best = SIZE_MAX;
    auto score = [&](size_t i) {
      return prices[i].distance + static_cast<double>(prices[i].size) / 1000.0;
    };
    const bool forced = walk.forced_domain.has_value() && step % 2 == 1 &&
                        std::any_of(candidates.begin(), candidates.end(),
                                    [&](const Candidate& c) {
                                      return c.domain == *walk.forced_domain;
                                    });
    for (size_t i = 0; i < candidates.size(); ++i) {
      EXPECT_EQ(prices[i].size, fresh_prices[i].size) << "candidate " << i;
      EXPECT_EQ(DoubleBits(prices[i].distance),
                DoubleBits(fresh_prices[i].distance))
          << "candidate " << i;
      if (forced && candidates[i].domain != *walk.forced_domain) continue;
      if (best == SIZE_MAX || score(i) < score(best)) best = i;
    }

    const AnnotationId summary =
        ds->registry->AddSummary(candidates[best].domain, "winner");
    prev_expr = std::move(current);
    prev_state = state;
    state.Merge(roots[best], summary);
    Homomorphism commit;
    for (AnnotationId root : roots[best]) commit.Set(root, summary);
    current = prev_expr->Apply(commit);
    prev_roots = std::move(roots);
    if (step == walk.rollback_at) {
      // The next step's state is the one this step saw: it is not carried.
      current = std::move(prev_expr);
      state = prev_state;
      prev_roots.clear();
    }
  }
  return CounterValue("prox_summarize_merges_carried_total") - carried_before;
}

struct CarryCase {
  const char* name;
  Dataset (*dataset)();
  CarryWalk (*walk)(const Dataset&);
};

Dataset SmallMovieLensDataset() {
  return MovieLensGenerator::Generate(SmallMovieLens());
}

CarryWalk MovieMerges(const Dataset& ds) {
  CarryWalk walk;
  walk.forced_domain = ds.domain("movie");
  return walk;
}

const CarryCase kCarryCases[] = {
    {"MovieLens", SmallMovieLensDataset,
     [](const Dataset&) { return CarryWalk{}; }},
    {"MovieLensMovieMerges", SmallMovieLensDataset, MovieMerges},
    {"GuardedMovieLensStatsMerges",
     [] {
       MovieLensConfig config = SmallMovieLens();
       config.with_guards = true;
       config.min_reviews = 1.0;
       Dataset ds = MovieLensGenerator::Generate(config);
       // Stats annotations occur only in guard bodies: only the guard half
       // of the touched rule sees the merges of their users.
       ds.constraints.SetRule(ds.domain("stats"),
                              std::make_unique<AnyMergeRule>("stats"));
       return ds;
     },
     [](const Dataset&) {
       CarryWalk walk;
       walk.steps = 8;
       return walk;
     }},
    {"UsersOnlyMovieLensMovieMerges",
     [] {
       Dataset ds = SmallMovieLensDataset();
       UsersOnlyMonomials(&ds);
       return ds;
     },
     MovieMerges},
    {"Wikipedia",
     [] {
       WikipediaConfig config;
       config.num_users = 10;
       config.num_pages = 6;
       return WikipediaGenerator::Generate(config);
     },
     [](const Dataset&) { return CarryWalk{}; }},
    {"ArityThree", SmallMovieLensDataset,
     [](const Dataset&) {
       CarryWalk walk;
       walk.options.arity = 3;
       walk.steps = 4;
       return walk;
     }},
    {"MaxCandidates", SmallMovieLensDataset,
     [](const Dataset&) {
       CarryWalk walk;
       walk.options.max_candidates = 12;
       return walk;
     }},
    {"WarmStart", SmallMovieLensDataset,
     [](const Dataset&) {
       CarryWalk walk;
       walk.warm = true;
       return walk;
     }},
    {"Rollback", SmallMovieLensDataset,
     [](const Dataset& ds) {
       CarryWalk walk = MovieMerges(ds);
       walk.rollback_at = 2;
       return walk;
     }},
};

TEST(StepPricingCarryTest, CarriedStepsEqualFreshSteps) {
  for (const CarryCase& c : kCarryCases) {
    for (int threads : {1, 8}) {
      SCOPED_TRACE(std::string(c.name) +
                   " threads=" + std::to_string(threads));
      Dataset ds = c.dataset();
      const CarryWalk walk = c.walk(ds);
      EXPECT_GT(WalkCarried(&ds, walk, threads), 0.0);  // steps were carried
    }
  }
}

TEST(StepPricingCarryTest, CountsTheMergesSizedFromThePreviousStep) {
  // Users A, B rate M1 and C, D rate M2; any two users may merge. Step 0
  // has six fresh merges. Committing A,B -> s changes only M1's rows, so
  // at step 1 the carried C,D is sized from step 0 and the fresh C,s and
  // D,s are shaped: the counter moves by exactly 0, then 1.
  AnnotationRegistry registry;
  const DomainId user = registry.AddDomain("user");
  const DomainId movie = registry.AddDomain("movie");
  auto add = [&](DomainId d, const char* name) {
    return registry.Add(d, name, kNoEntity).MoveValue();
  };
  const AnnotationId a = add(user, "A");
  const AnnotationId b = add(user, "B");
  const AnnotationId c = add(user, "C");
  const AnnotationId d = add(user, "D");
  const AnnotationId m1 = add(movie, "M1");
  const AnnotationId m2 = add(movie, "M2");
  auto p0 = NewAggregate(AggKind::kMax);
  p0->AddTerm(Monomial{a, m1}, m1, AggValue{3.0, 1.0});
  p0->AddTerm(Monomial{b, m1}, m1, AggValue{5.0, 1.0});
  p0->AddTerm(Monomial{c, m2}, m2, AggValue{2.0, 1.0});
  p0->AddTerm(Monomial{d, m2}, m2, AggValue{4.0, 1.0});
  p0->Canonicalize();
  SemanticContext ctx;
  ctx.registry = &registry;
  ConstraintSet constraints;
  constraints.SetRule(user, std::make_unique<AnyMergeRule>("users"));
  std::vector<Valuation> valuations;
  for (AnnotationId x : {a, b, c, d}) {
    valuations.emplace_back(std::vector<AnnotationId>{x});
  }
  AbsoluteDifferenceValFunc vf;
  EnumeratedDistance oracle(p0.get(), &registry, &vf, valuations);
  CandidateGenerator generator(&constraints, &ctx);
  MappingState state(&registry, PhiConfig{});
  std::unique_ptr<ProvenanceExpression> current = p0->Clone();
  CandidateSet candidates;
  PricingCache cache;
  std::vector<MergePrice> prices;

  auto price_step = [&]() {
    generator.Generate(*current, state, CandidateOptions{}, &candidates);
    const AnnotationId scratch = registry.AddSummary(user, "~scratch");
    std::vector<MergeQuery> merges;
    for (const Candidate& cand : candidates) {
      merges.push_back({candidates.roots(cand), scratch, cand.prev});
    }
    const double before = CounterValue("prox_summarize_merges_carried_total");
    PriceMerges(&oracle, *current, state, merges, nullptr, &cache, &prices);
    return CounterValue("prox_summarize_merges_carried_total") - before;
  };

  EXPECT_EQ(price_step(), 0.0);
  ASSERT_EQ(candidates.size(), 6u);
  EXPECT_EQ(prices[5].size, 6);  // C,D: [t M2] replaces two rows

  const AnnotationId s = registry.AddSummary(user, "AB");
  state.Merge({a, b}, s);
  Homomorphism commit;
  commit.Set(a, s);
  commit.Set(b, s);
  current = current->Apply(commit);

  EXPECT_EQ(price_step(), 1.0);
  ASSERT_EQ(candidates.size(), 3u);
  const std::span<const AnnotationId> carried = candidates.roots(candidates[0]);
  EXPECT_EQ(std::vector<AnnotationId>(carried.begin(), carried.end()),
            (std::vector<AnnotationId>{c, d}));
  EXPECT_EQ(candidates[0].prev, 5);
  EXPECT_EQ(candidates[1].prev, -1);
  EXPECT_EQ(candidates[2].prev, -1);
  EXPECT_EQ(prices[0].size, 4);  // [s M1] and [t M2]
}

}  // namespace
}  // namespace prox
