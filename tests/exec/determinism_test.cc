#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/clustering_summarizer.h"
#include "datasets/ddp.h"
#include "datasets/movielens.h"
#include "datasets/wikipedia.h"
#include "summarize/distance.h"
#include "summarize/summarizer.h"
#include "testing/fixtures.h"

namespace prox {
namespace {

/// The determinism contract of the parallel engine: for any thread count,
/// Summarizer::Run over both valuation sets (the dataset's class and a
/// drawn Monte-Carlo set) and the HAC baseline produce
/// *byte-identical* outcomes — same merges, same distances to the last
/// bit, same summary expression. Each run builds a fresh dataset from the
/// same seed so registries evolve identically; fingerprints render every
/// double with %a (exact bits) and timings are excluded (wall time is the
/// only thing allowed to differ).

enum class Kind { kMovieLens, kWikipedia, kDdp };
enum class Oracle { kEnumerated, kSampled };

Dataset MakeDataset(Kind kind) {
  switch (kind) {
    case Kind::kMovieLens: {
      MovieLensConfig config;
      config.num_users = 12;
      config.num_movies = 5;
      config.ratings_per_user = 4;
      config.seed = 71;
      return MovieLensGenerator::Generate(config);
    }
    case Kind::kWikipedia: {
      WikipediaConfig config;
      config.num_users = 10;
      config.num_pages = 6;
      config.edits_per_user = 3;
      config.seed = 72;
      return WikipediaGenerator::Generate(config);
    }
    case Kind::kDdp: {
      DdpConfig config;
      config.num_executions = 5;
      config.num_db_vars = 6;
      config.num_cost_vars = 5;
      config.seed = 73;
      return DdpGenerator::Generate(config);
    }
  }
  return MovieLensGenerator::Generate(MovieLensConfig{});
}

std::string Hex(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", value);
  return buf;
}

/// Every non-timing field of the outcome, bit-exact.
std::string Fingerprint(const SummaryOutcome& o,
                        const AnnotationRegistry& registry) {
  std::string fp;
  fp += "final_distance=" + Hex(o.final_distance) + "\n";
  fp += "final_size=" + std::to_string(o.final_size) + "\n";
  fp += "rolled_back=" + std::to_string(o.rolled_back) + "\n";
  fp += "equivalence_merges=" + std::to_string(o.equivalence_merges) + "\n";
  for (const StepRecord& s : o.steps) {
    fp += "step " + std::to_string(s.step) + ": roots=[";
    for (AnnotationId root : s.merged_roots) {
      fp += std::to_string(root) + ",";
    }
    fp += "] summary=" + std::to_string(s.summary) + " name=" + s.summary_name;
    fp += " dist=" + Hex(s.distance) + " size=" + std::to_string(s.size);
    fp += " score=" + Hex(s.score);
    fp += " candidates=" + std::to_string(s.num_candidates) + "\n";
  }
  fp += "summary_expr=" + o.summary->ToString(registry) + "\n";
  return fp;
}

std::string RunProvApprox(Kind kind, Oracle oracle_kind, int threads) {
  Dataset ds = MakeDataset(kind);
  std::vector<Valuation> valuations =
      ds.valuation_class->Generate(*ds.provenance, ds.ctx);

  // The oracle prices either the dataset's class or a drawn Monte-Carlo
  // set; the summarizer's equivalence pass always uses the class.
  EnumeratedDistance oracle(
      ds.provenance.get(), ds.registry.get(), ds.val_func.get(),
      oracle_kind == Oracle::kEnumerated
          ? valuations
          : testing_fixtures::DrawSamples(*ds.provenance, ds.ctx, 200));

  SummarizerOptions options;
  options.w_dist = 0.6;
  options.w_size = 0.4;
  options.max_steps = 6;
  options.phi = ds.phi;
  options.threads = threads;
  Summarizer summarizer(ds.provenance.get(), ds.registry.get(), &ds.ctx,
                        &ds.constraints, &oracle, &valuations, options);
  Result<SummaryOutcome> outcome = summarizer.Run();
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  if (!outcome.ok()) return "<failed>";
  return Fingerprint(outcome.value(), *ds.registry);
}

std::string RunHac(Kind kind, int threads) {
  Dataset ds = MakeDataset(kind);
  std::vector<Valuation> valuations =
      ds.valuation_class->Generate(*ds.provenance, ds.ctx);
  EnumeratedDistance oracle(ds.provenance.get(), ds.registry.get(),
                            ds.val_func.get(), valuations);
  ClusteringOptions options;
  options.max_steps = 6;
  options.phi = ds.phi;
  options.threads = threads;
  ClusteringSummarizer cs(ds.provenance.get(), ds.registry.get(), &ds.ctx,
                          &ds.constraints, &oracle, options);
  for (const auto& [domain, features] : ds.features) {
    cs.SetFeatures(domain, features);
  }
  Result<SummaryOutcome> outcome = cs.Run();
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  if (!outcome.ok()) return "<failed>";
  return Fingerprint(outcome.value(), *ds.registry);
}

std::string KindName(Kind kind) {
  switch (kind) {
    case Kind::kMovieLens: return "MovieLens";
    case Kind::kWikipedia: return "Wikipedia";
    case Kind::kDdp: return "Ddp";
  }
  return "Unknown";
}

std::string ParamName(
    const ::testing::TestParamInfo<std::tuple<Kind, Oracle>>& info) {
  return KindName(std::get<0>(info.param)) +
         (std::get<1>(info.param) == Oracle::kEnumerated ? "Enumerated"
                                                         : "Sampled");
}

std::string HacParamName(const ::testing::TestParamInfo<Kind>& info) {
  return KindName(info.param);
}

class DeterminismTest
    : public ::testing::TestWithParam<std::tuple<Kind, Oracle>> {};

TEST_P(DeterminismTest, ByteIdenticalOutcomeAcrossThreadCounts) {
  const Kind kind = std::get<0>(GetParam());
  const Oracle oracle = std::get<1>(GetParam());
  const std::string serial = RunProvApprox(kind, oracle, 1);
  ASSERT_NE(serial, "<failed>");
  EXPECT_FALSE(serial.empty());
  for (int threads : {2, 8}) {
    EXPECT_EQ(serial, RunProvApprox(kind, oracle, threads))
        << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasetsAndOracles, DeterminismTest,
    ::testing::Combine(::testing::Values(Kind::kMovieLens, Kind::kWikipedia,
                                         Kind::kDdp),
                       ::testing::Values(Oracle::kEnumerated,
                                         Oracle::kSampled)),
    ParamName);

class HacDeterminismTest : public ::testing::TestWithParam<Kind> {};

TEST_P(HacDeterminismTest, ByteIdenticalOutcomeAcrossThreadCounts) {
  const Kind kind = GetParam();
  const std::string serial = RunHac(kind, 1);
  ASSERT_NE(serial, "<failed>");
  EXPECT_FALSE(serial.empty());
  for (int threads : {2, 8}) {
    EXPECT_EQ(serial, RunHac(kind, threads)) << "threads=" << threads;
  }
}

// DDP ships no feature vectors, so HAC covers the two rating datasets.
INSTANTIATE_TEST_SUITE_P(FeatureDatasets, HacDeterminismTest,
                         ::testing::Values(Kind::kMovieLens, Kind::kWikipedia),
                         HacParamName);

// threads = 0 resolves to the machine default; the outcome must still be
// identical to the serial run regardless of what that default is.
TEST(DeterminismTest, AutoThreadsMatchesSerial) {
  EXPECT_EQ(RunProvApprox(Kind::kMovieLens, Oracle::kEnumerated, 1),
            RunProvApprox(Kind::kMovieLens, Oracle::kEnumerated, 0));
}

}  // namespace
}  // namespace prox
