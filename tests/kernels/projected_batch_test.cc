// Bit-identity of the projected batch path. After a merge that touched a
// group key, the oracles fold each block's base values into the
// candidate's group slots (kernels::ProjectBlock) instead of projecting
// v(p₀) valuation by valuation. Every candidate of such a step, priced
// through the batch path and through the scalar reference (the same
// VAL-FUNC wrapped to report kNone), must have the same double bits: for
// every aggregation, every VAL-FUNC with a batch kind that accepts vectors
// and both valuation sets (the dataset's class and a drawn Monte-Carlo
// set), at threads {1, 8}.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "datasets/movielens.h"
#include "ir/adopt.h"
#include "ir/golden_run.h"
#include "ir/term_pool.h"
#include "kernels/metrics.h"
#include "summarize/candidates.h"
#include "summarize/distance.h"
#include "summarize/val_func.h"
#include "testing/fixtures.h"

namespace prox {
namespace {

using golden::DoubleBits;
using testing_fixtures::DrawSamples;
using testing_fixtures::ScalarReferenceValFunc;

enum class VfKind { kEuclidean, kAbsoluteDifference, kDisagreement };

struct ProjectedCase {
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

std::string CaseName(const ::testing::TestParamInfo<ProjectedCase>& info) {
  return std::string(AggKindToString(info.param.agg)) + "_" +
         VfName(info.param.vf) +
         (info.param.sampled ? "_Sampled" : "_Enumerated");
}

std::vector<ProjectedCase> AllCases() {
  std::vector<ProjectedCase> cases;
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

/// One candidate of the step: its tentative state and expression.
struct Priced {
  MappingState state;
  std::unique_ptr<ProvenanceExpression> expr;
};

class ProjectedBatchTest : public ::testing::TestWithParam<ProjectedCase> {};

TEST_P(ProjectedBatchTest, EveryCandidateMatchesTheScalarReferenceBitForBit) {
  const ProjectedCase& c = GetParam();
  MovieLensConfig config;
  config.num_users = 10;
  config.num_movies = 5;
  config.ratings_per_user = 3;
  config.agg = c.agg;
  Dataset ds = MovieLensGenerator::Generate(config);
  const std::vector<Valuation> valuations =
      c.sampled
          ? DrawSamples(*ds.provenance, ds.ctx, 44)  // 5 full chunks + 4
          : ds.valuation_class->Generate(*ds.provenance, ds.ctx);
  EuclideanValFunc euclidean;
  AbsoluteDifferenceValFunc absolute;
  DisagreementValFunc disagreement;
  const ValFunc* vf = c.vf == VfKind::kEuclidean ? &euclidean
                      : c.vf == VfKind::kAbsoluteDifference
                          ? static_cast<const ValFunc*>(&absolute)
                          : &disagreement;
  ScalarReferenceValFunc reference_vf(vf);

  // A committed group-key merge: two movies share one coordinate, so every
  // candidate of the next step prices through the projection. Any two
  // movies may merge, so the step also has candidates that fold a third
  // movie into the merged coordinate.
  const DomainId movie = ds.domain("movie");
  const std::vector<AnnotationId> movies =
      ds.registry->AnnotationsInDomain(movie);
  ASSERT_GE(movies.size(), 3u);
  MappingState state(ds.registry.get(), ds.phi);
  state.Merge({movies[0], movies[1]},
              ds.registry->AddSummary(movie, "merged-movies"));
  std::unique_ptr<ProvenanceExpression> current =
      ir::Adopt(*ds.provenance, std::make_shared<ir::TermPool>())
          ->Apply(state.cumulative());
  ds.constraints.SetRule(movie, std::make_unique<AnyMergeRule>("movies"));
  CandidateGenerator generator(&ds.constraints, &ds.ctx);
  CandidateSet candidates;
  generator.Generate(*current, state, CandidateOptions{}, &candidates);

  std::map<DomainId, AnnotationId> scratch;
  std::vector<Priced> step;
  int movie_merges = 0;
  for (const Candidate& cand : candidates) {
    if (scratch.count(cand.domain) == 0) {
      scratch[cand.domain] = ds.registry->AddSummary(cand.domain, "~scratch");
    }
    const AnnotationId tmp = scratch.at(cand.domain);
    const std::span<const AnnotationId> roots = candidates.roots(cand);
    MappingState tentative = state;
    tentative.Merge({roots.begin(), roots.end()}, tmp);
    Homomorphism h;
    for (AnnotationId root : roots) h.Set(root, tmp);
    step.push_back({std::move(tentative), current->Apply(h)});
    if (cand.domain == movie) ++movie_merges;
  }
  ASSERT_GT(movie_merges, 0);
  ASSERT_GT(step.size(), static_cast<size_t>(movie_merges));

  for (int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EnumeratedDistance batched(ds.provenance.get(), ds.registry.get(), vf,
                               valuations, threads);
    EnumeratedDistance reference(ds.provenance.get(), ds.registry.get(),
                                 &reference_vf, valuations, threads);

    const uint64_t fallbacks_before = kernels::ScalarFallbacksForTesting();
    const uint64_t batch_before = kernels::BatchEvalsForTesting();
    std::vector<double> batched_distances;
    for (const Priced& p : step) {
      batched_distances.push_back(batched.Distance(*p.expr, p.state));
    }
    EXPECT_EQ(kernels::ScalarFallbacksForTesting(), fallbacks_before);
    EXPECT_GT(kernels::BatchEvalsForTesting(), batch_before);

    for (size_t i = 0; i < step.size(); ++i) {
      const double expected = reference.Distance(*step[i].expr, step[i].state);
      EXPECT_EQ(DoubleBits(batched_distances[i]), DoubleBits(expected))
          << "candidate " << i << ": batched " << batched_distances[i]
          << " vs scalar " << expected;
    }
    EXPECT_EQ(kernels::ScalarFallbacksForTesting(),
              fallbacks_before + step.size());
  }
}

INSTANTIATE_TEST_SUITE_P(AggValFuncOracle, ProjectedBatchTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

}  // namespace
}  // namespace prox
