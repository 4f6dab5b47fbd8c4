// Differential test of Summarizer::Run against the naive Algorithm 1 in
// testing/reference_summarizer.h, the spec of every pricing fast path
// (step pricing, the pricing cache, bounded steps, the batch kernels and
// their SIMD tiers, the thread fan-out). Each seed draws a dataset family
// (MovieLens, Wikipedia, DDP, polynomial) at a small random size, the
// weights (0 and 1 included), arity 2 or 3, ordinal ranks on or off, a
// TARGET-DIST and TARGET-SIZE, a warm-start seed, threads {1, 4} and a
// SIMD tier cap; aggregate cases also draw their VAL-FUNC, row values
// whose fold order shows in the bits, and free movie merges. Each side runs on its own copy of the dataset, generated
// from the same seed, and registers the same annotations in the same
// order, so the committed steps must agree bit for bit: roots, summary ids
// and names, distance and score bits, sizes and candidate counts.
//
// The binary takes two arguments of its own:
//   --reference-cases=N    seeds 0..N-1 (default kDefaultCases)
//   --reference-threads=T  run only the seeds that draw T threads

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "datasets/ddp.h"
#include "datasets/movielens.h"
#include "datasets/wikipedia.h"
#include "ir/adopt.h"
#include "ir/term_pool.h"
#include "semiring/polynomial.h"
#include "summarize/distance.h"
#include "summarize/summarizer.h"
#include "testing/fixtures.h"
#include "testing/reference_summarizer.h"

namespace prox {
namespace {

using testing_fixtures::DrawSamples;
using testing_fixtures::MakeFoldOrderVisible;
using testing_reference::ReferenceRun;
using testing_reference::RunReference;

constexpr int kDefaultCases = 192;
int g_cases = kDefaultCases;
int g_only_threads = 0;  // 0 = every seed

enum class Family { kMovieLens, kWikipedia, kDdp, kPolynomial };

const char* FamilyName(Family f) {
  switch (f) {
    case Family::kMovieLens:
      return "MovieLens";
    case Family::kWikipedia:
      return "Wikipedia";
    case Family::kDdp:
      return "DDP";
    case Family::kPolynomial:
      return "polynomial";
  }
  return "";
}

/// A random ℕ[Ann] lineage over two domains of tuples.
struct PolynomialConfig {
  int num_tuples = 6;
  int num_terms = 6;
  bool disagreement = false;  ///< Disagreement VAL-FUNC, else L1
  uint64_t seed = 1;
};

/// Everything one seed draws.
struct Case {
  Family family = Family::kMovieLens;
  MovieLensConfig movielens;
  WikipediaConfig wikipedia;
  DdpConfig ddp;
  PolynomialConfig polynomial;
  /// Aggregate families: row values whose fold order shows in the bits
  /// (MakeFoldOrderVisible), and the VAL-FUNC (0 = the dataset's,
  /// 1 = AbsoluteDifference, 2 = Disagreement, 3 = Euclidean).
  bool fold_order_visible = false;
  int val_func = 0;
  bool any_movie_merge = false;  ///< MovieLens: any two movies may merge
  int num_samples = 0;  ///< drawn valuations, 0 = the dataset's class
  SummarizerOptions options;
  bool target_size_set = false;
  double target_size_share = 1.0;  ///< of p₀'s size, when set
  int warm_steps = 0;              ///< 0 = cold
  int threads = 1;
  common::SimdTier tier = common::SimdTier::kAvx2;

  std::string Describe() const {
    std::string s = FamilyName(family);
    s += " fold_order_visible=" + std::to_string(fold_order_visible) +
         " any_movie_merge=" + std::to_string(any_movie_merge) +
         " val_func=" + std::to_string(val_func) +
         " samples=" + std::to_string(num_samples) +
         " w_dist=" + std::to_string(options.w_dist) +
         " w_size=" + std::to_string(options.w_size) +
         " w_taxonomy=" + std::to_string(options.w_taxonomy) +
         " arity=" + std::to_string(options.candidates.arity) +
         " ordinal=" + std::to_string(options.use_ordinal_ranks) +
         " target_dist=" + std::to_string(options.target_dist) +
         " target_size_share=" +
         (target_size_set ? std::to_string(target_size_share) : "off") +
         " max_steps=" + std::to_string(options.max_steps) +
         " equivalence=" + std::to_string(options.group_equivalent_first) +
         " tie_break=" + std::to_string(static_cast<int>(options.tie_break)) +
         " warm_steps=" + std::to_string(warm_steps) +
         " threads=" + std::to_string(threads) +
         " tier=" + common::SimdTierName(tier);
    return s;
  }
};

Case DrawCase(uint64_t seed) {
  Rng rng(0x5EEDC0DEull, seed);
  Case c;
  c.family = static_cast<Family>(rng.UniformInt(4));
  const uint64_t data_seed = rng.Next();
  switch (c.family) {
    case Family::kMovieLens: {
      MovieLensConfig& m = c.movielens;
      m.num_users = static_cast<int>(rng.UniformRange(4, 25));
      m.num_movies = static_cast<int>(rng.UniformRange(2, 8));
      m.ratings_per_user = static_cast<int>(rng.UniformRange(1, 3));
      const AggKind aggs[] = {AggKind::kMax, AggKind::kMin, AggKind::kSum,
                              AggKind::kCount, AggKind::kAvg};
      m.agg = aggs[rng.UniformInt(5)];
      m.attribute_valuations = rng.Bernoulli(0.5);
      m.with_guards = rng.Bernoulli(0.3);
      m.seed = data_seed;
      c.any_movie_merge = rng.Bernoulli(0.4);
      break;
    }
    case Family::kWikipedia: {
      WikipediaConfig& w = c.wikipedia;
      w.num_users = static_cast<int>(rng.UniformRange(4, 16));
      w.num_pages = static_cast<int>(rng.UniformRange(3, 10));
      w.edits_per_user = static_cast<int>(rng.UniformRange(1, 5));
      w.seed = data_seed;
      break;
    }
    case Family::kDdp: {
      DdpConfig& d = c.ddp;
      d.num_executions = static_cast<int>(rng.UniformRange(2, 10));
      d.min_transitions = 1;
      d.max_transitions = static_cast<int>(rng.UniformRange(2, 5));
      d.num_db_vars = static_cast<int>(rng.UniformRange(3, 10));
      d.num_cost_vars = static_cast<int>(rng.UniformRange(2, 5));
      d.from_machine = rng.Bernoulli(0.3);
      d.seed = data_seed;
      break;
    }
    case Family::kPolynomial: {
      PolynomialConfig& p = c.polynomial;
      p.num_tuples = static_cast<int>(rng.UniformRange(4, 12));
      p.num_terms = static_cast<int>(rng.UniformRange(3, 14));
      p.disagreement = rng.Bernoulli(0.5);
      p.seed = data_seed;
      break;
    }
  }
  if (c.family == Family::kMovieLens || c.family == Family::kWikipedia) {
    c.fold_order_visible = rng.Bernoulli(0.3);
    c.val_func = static_cast<int>(rng.UniformInt(4));
  }
  if (c.family != Family::kDdp && rng.Bernoulli(0.2)) {
    c.num_samples = static_cast<int>(rng.UniformRange(9, 40));
  }
  SummarizerOptions& o = c.options;
  const double w_dist[] = {0.0, 0.25, 0.5, 0.75, 1.0};
  o.w_dist = w_dist[rng.UniformInt(5)];
  o.w_size = 1.0 - o.w_dist;
  if (rng.Bernoulli(0.25)) o.w_taxonomy = 0.3;
  o.candidates.arity = rng.Bernoulli(0.25) ? 3 : 2;
  o.use_ordinal_ranks = rng.Bernoulli(0.25);
  if (rng.Bernoulli(0.3)) o.target_dist = 0.02 + 0.3 * rng.UniformDouble();
  c.target_size_set = rng.Bernoulli(0.25);
  c.target_size_share = 0.3 + 0.6 * rng.UniformDouble();
  o.max_steps = static_cast<int>(rng.UniformRange(1, 12));
  o.group_equivalent_first = rng.Bernoulli(0.5);
  const TieBreak tie_breaks[] = {TieBreak::kTaxonomyMax,
                                 TieBreak::kTaxonomySum, TieBreak::kFirst};
  o.tie_break = tie_breaks[rng.UniformInt(3)];
  if (rng.Bernoulli(0.3)) {
    c.warm_steps = static_cast<int>(rng.UniformRange(1, 3));
  }
  c.threads = rng.Bernoulli(0.5) ? 4 : 1;
  const common::SimdTier tiers[] = {common::SimdTier::kScalar,
                                    common::SimdTier::kSse42,
                                    common::SimdTier::kAvx2};
  c.tier = tiers[rng.UniformInt(3)];
  return c;
}

Dataset GeneratePolynomial(const PolynomialConfig& config) {
  Dataset ds;
  ds.registry = std::make_unique<AnnotationRegistry>();
  ds.ctx.registry = ds.registry.get();
  const DomainId domains[] = {ds.registry->AddDomain("r"),
                              ds.registry->AddDomain("s")};
  ds.domains["r"] = domains[0];
  ds.domains["s"] = domains[1];
  std::vector<AnnotationId> tuples;
  for (int i = 0; i < config.num_tuples; ++i) {
    const DomainId d = domains[i % 2];
    tuples.push_back(ds.registry
                         ->Add(d, (i % 2 == 0 ? "r" : "s") + std::to_string(i))
                         .MoveValue());
  }
  Rng rng(config.seed);
  Polynomial poly;
  for (int t = 0; t < config.num_terms; ++t) {
    Polynomial::Mono mono;
    const int len = static_cast<int>(rng.UniformRange(1, 3));
    for (int k = 0; k < len; ++k) {
      mono.push_back(tuples[rng.UniformInt(tuples.size())]);
    }
    std::sort(mono.begin(), mono.end());
    poly.AddTerm(mono, 1 + rng.UniformInt(3));
  }
  ds.provenance = ir::Adopt(poly, std::make_shared<ir::TermPool>());
  for (const DomainId d : domains) {
    ds.constraints.SetRule(d, std::make_unique<AnyMergeRule>("t"));
  }
  ds.valuation_class = std::make_unique<CancelSingleAnnotation>();
  if (config.disagreement) {
    ds.val_func = std::make_unique<DisagreementValFunc>();
  } else {
    ds.val_func = std::make_unique<AbsoluteDifferenceValFunc>();
  }
  return ds;
}

Dataset Generate(const Case& c) {
  Dataset ds;
  switch (c.family) {
    case Family::kMovieLens:
      ds = MovieLensGenerator::Generate(c.movielens);
      break;
    case Family::kWikipedia:
      ds = WikipediaGenerator::Generate(c.wikipedia);
      break;
    case Family::kDdp:
      return DdpGenerator::Generate(c.ddp);
    case Family::kPolynomial:
      return GeneratePolynomial(c.polynomial);
  }
  if (c.fold_order_visible) MakeFoldOrderVisible(&ds);
  if (c.any_movie_merge) {
    // Group-key merges in most steps: the merged group's terms fold in
    // among the kept groups'.
    ds.constraints.SetRule(ds.domain("movie"),
                           std::make_unique<AnyMergeRule>("movies"));
  }
  switch (c.val_func) {
    case 1:
      ds.val_func = std::make_unique<AbsoluteDifferenceValFunc>();
      break;
    case 2:
      ds.val_func = std::make_unique<DisagreementValFunc>();
      break;
    case 3:
      ds.val_func = std::make_unique<EuclideanValFunc>();
      break;
  }
  return ds;
}

/// One side's dataset, valuations and options, built afresh from the case.
struct Side {
  Dataset ds;
  std::vector<Valuation> valuations;
  SummarizerOptions options;

  explicit Side(const Case& c) : ds(Generate(c)), options(c.options) {
    valuations = c.num_samples > 0
                     ? DrawSamples(*ds.provenance, ds.ctx, c.num_samples)
                     : ds.valuation_class->Generate(*ds.provenance, ds.ctx);
    options.phi = ds.phi;
    options.threads = c.threads;
    if (c.target_size_set) {
      options.target_size = static_cast<int64_t>(
          c.target_size_share * static_cast<double>(ds.provenance->Size()));
    }
  }

  /// The warm-start seed run: the first `steps` merges of a cold run
  /// without stop bounds.
  SummarizerOptions SeedOptions(int steps) const {
    SummarizerOptions seed = options;
    seed.max_steps = steps;
    seed.target_dist = 1.0;
    seed.target_size = 1;
    return seed;
  }
};

using Seed = std::vector<std::pair<AnnotationId, std::vector<AnnotationId>>>;

/// Scoped SIMD-tier cap, lifted back to the hardware decision on exit.
struct TierCap {
  explicit TierCap(common::SimdTier tier) { common::SetSimdTierCap(tier); }
  ~TierCap() { common::SetSimdTierCap(common::SimdTier::kAvx2); }
};

uint64_t Bits(double x) {
  uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

void ExpectSameOutcome(const SummaryOutcome& run, const AnnotationRegistry& rr,
                       const SummaryOutcome& spec,
                       const AnnotationRegistry& sr) {
  ASSERT_EQ(run.steps.size(), spec.steps.size());
  for (size_t s = 0; s < spec.steps.size(); ++s) {
    SCOPED_TRACE("step " + std::to_string(s + 1));
    const StepRecord& a = run.steps[s];
    const StepRecord& b = spec.steps[s];
    EXPECT_EQ(a.step, b.step);
    EXPECT_EQ(a.merged_roots, b.merged_roots);
    EXPECT_EQ(a.summary, b.summary);
    EXPECT_EQ(a.summary_name, b.summary_name);
    EXPECT_EQ(Bits(a.distance), Bits(b.distance))
        << a.distance << " vs " << b.distance;
    EXPECT_EQ(a.size, b.size);
    EXPECT_EQ(Bits(a.score), Bits(b.score)) << a.score << " vs " << b.score;
    EXPECT_EQ(a.num_candidates, b.num_candidates);
  }
  EXPECT_EQ(run.rolled_back, spec.rolled_back);
  EXPECT_EQ(run.equivalence_merges, spec.equivalence_merges);
  EXPECT_EQ(run.warm_replayed_merges, spec.warm_replayed_merges);
  EXPECT_EQ(Bits(run.final_distance), Bits(spec.final_distance))
      << run.final_distance << " vs " << spec.final_distance;
  EXPECT_EQ(run.final_size, spec.final_size);
  EXPECT_EQ(run.state.summaries(), spec.state.summaries());
  EXPECT_EQ(run.summary->ToString(rr), spec.summary->ToString(sr));
  EXPECT_EQ(rr.size(), sr.size());
}

/// Summarizer::Run on `fast`, under the case's tier cap and thread count:
/// the warm-start seed run first when the case has one.
Result<SummaryOutcome> RunSummarizer(const Case& c, Side* fast) {
  TierCap cap(c.tier);
  EnumeratedDistance oracle(fast->ds.provenance.get(), fast->ds.registry.get(),
                            fast->ds.val_func.get(), fast->valuations);
  auto run = [&](const SummarizerOptions& options) {
    return Summarizer(fast->ds.provenance.get(), fast->ds.registry.get(),
                      &fast->ds.ctx, &fast->ds.constraints, &oracle,
                      &fast->valuations, options)
        .Run();
  };
  Seed seed;
  SummarizerOptions options = fast->options;
  if (c.warm_steps > 0) {
    Result<SummaryOutcome> seeded = run(fast->SeedOptions(c.warm_steps));
    if (!seeded.ok()) return seeded;
    seed = seeded.value().state.summaries();
    options.warm_seed = &seed;
  }
  return run(options);
}

/// The reference on `spec`, with the same warm-start seed run.
ReferenceRun RunSpec(const Case& c, Side* spec) {
  auto run = [&](const SummarizerOptions& options) {
    return RunReference(*spec->ds.provenance, spec->ds.registry.get(),
                        spec->ds.ctx, spec->ds.constraints,
                        *spec->ds.val_func, spec->valuations, options);
  };
  Seed seed;
  SummarizerOptions options = spec->options;
  if (c.warm_steps > 0) {
    seed = run(spec->SeedOptions(c.warm_steps)).outcome.state.summaries();
    options.warm_seed = &seed;
  }
  return run(options);
}

/// Runs one drawn case on both sides and compares them.
void RunCase(uint64_t seed) {
  const Case c = DrawCase(seed);
  SCOPED_TRACE("seed " + std::to_string(seed) + ": " + c.Describe());
  Side fast(c);
  const Result<SummaryOutcome> run = RunSummarizer(c, &fast);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  Side spec(c);
  const ReferenceRun reference = RunSpec(c, &spec);
  ExpectSameOutcome(run.value(), *fast.ds.registry, reference.outcome,
                    *spec.ds.registry);
}

class ReferenceDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(ReferenceDifferentialTest, RunCommitsTheReferenceSteps) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  if (g_only_threads != 0 && DrawCase(seed).threads != g_only_threads) {
    GTEST_SKIP() << "draws " << DrawCase(seed).threads << " threads";
  }
  RunCase(seed);
}

TEST(ReferenceDifferentialDrawTest, DefaultBudgetDrawsEveryDimension) {
  // The default seeds reach every family, both thread counts, every tier
  // cap, both arities, ordinal ranks, taxonomy weights, TARGET-DIST and
  // TARGET-SIZE bounds, drawn valuations, warm starts, the weights 0 and
  // 1, fold-order-visible values, free movie merges and every VAL-FUNC of
  // an aggregate.
  std::set<std::string> seen;
  for (int s = 0; s < kDefaultCases; ++s) {
    const Case c = DrawCase(static_cast<uint64_t>(s));
    seen.insert(FamilyName(c.family));
    seen.insert("threads=" + std::to_string(c.threads));
    seen.insert(std::string("tier=") + common::SimdTierName(c.tier));
    seen.insert("arity=" + std::to_string(c.options.candidates.arity));
    if (c.options.use_ordinal_ranks) seen.insert("ordinal");
    if (c.options.w_taxonomy > 0.0) seen.insert("taxonomy");
    if (c.options.target_dist < 1.0) seen.insert("target_dist");
    if (c.target_size_set) seen.insert("target_size");
    if (c.num_samples > 0) seen.insert("sampled");
    if (c.warm_steps > 0) seen.insert("warm");
    if (c.fold_order_visible) seen.insert("fold_order_visible");
    if (c.any_movie_merge) seen.insert("any_movie_merge");
    seen.insert("val_func=" + std::to_string(c.val_func));
    if (c.options.w_dist == 0.0) seen.insert("w_dist=0");
    if (c.options.w_dist == 1.0) seen.insert("w_dist=1");
  }
  for (const char* want :
       {"MovieLens", "Wikipedia", "DDP", "polynomial", "threads=1",
        "threads=4", "tier=scalar", "tier=sse4.2", "tier=avx2", "arity=2",
        "arity=3", "ordinal", "taxonomy", "target_dist", "target_size",
        "sampled", "warm", "w_dist=0", "w_dist=1", "fold_order_visible",
        "any_movie_merge",
        "val_func=0", "val_func=1", "val_func=2", "val_func=3"}) {
    EXPECT_EQ(seen.count(want), 1u) << want;
  }
}

std::vector<int> Seeds() {
  std::vector<int> seeds;
  for (int s = 0; s < g_cases; ++s) seeds.push_back(s);
  return seeds;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceDifferentialTest,
                         ::testing::ValuesIn(Seeds()));

}  // namespace
}  // namespace prox

int main(int argc, char** argv) {
  // The suite's own arguments; gtest ignores what it does not know.
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--reference-cases=")) {
      prox::g_cases = std::atoi(argv[i] + std::strlen("--reference-cases="));
    } else if (arg.starts_with("--reference-threads=")) {
      prox::g_only_threads =
          std::atoi(argv[i] + std::strlen("--reference-threads="));
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
