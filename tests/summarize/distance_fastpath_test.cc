// The EnumeratedDistance projection fast path (identity group mapping)
// and its projected path (group keys merged) must both agree exactly with
// the per-valuation spec that projects through the cumulative
// homomorphism.

#include <gtest/gtest.h>

#include "summarize/distance.h"
#include "summarize/val_func.h"
#include "summarize/valuation_class.h"
#include "testing/fixtures.h"
#include "testing/reference_summarizer.h"

namespace prox {
namespace {

using testing_fixtures::MovieFixture;

/// The spec (testing/reference_summarizer.h): Definition 3.2.2 one
/// valuation at a time, projecting v(p₀) through the cumulative
/// homomorphism whenever it merges a group key.
double SlowDistance(const MovieFixture& fx, const ProvenanceExpression& cand,
                    const MappingState& state,
                    const std::vector<Valuation>& valuations,
                    const ValFunc& vf) {
  return testing_reference::ReferenceDistance(
      {fx.p0.get(), &fx.registry, &vf, &valuations}, cand, state);
}

TEST(DistanceFastPathTest, UserOnlyMergeMatchesGeneralPath) {
  MovieFixture fx;
  CancelSingleAnnotation cls;
  auto valuations = cls.Generate(*fx.p0, fx.ctx);
  EuclideanValFunc vf;
  EnumeratedDistance oracle(fx.p0.get(), &fx.registry, &vf, valuations);

  // User merge: group keys untouched -> fast path taken.
  AnnotationId female = fx.registry.AddSummary(fx.user_domain, "Female");
  MappingState state(&fx.registry, PhiConfig{});
  state.Merge({fx.u1, fx.u2}, female);
  Homomorphism h;
  h.Set(fx.u1, female);
  h.Set(fx.u2, female);
  auto cand = fx.p0->Apply(h);

  EXPECT_EQ(oracle.Distance(*cand, state),
            SlowDistance(fx, *cand, state, valuations, vf));
}

TEST(DistanceFastPathTest, MovieMergeTakesProjectingPathAndAgrees) {
  MovieFixture fx;
  CancelSingleAnnotation cls;
  auto valuations = cls.Generate(*fx.p0, fx.ctx);
  EuclideanValFunc vf;
  EnumeratedDistance oracle(fx.p0.get(), &fx.registry, &vf, valuations);

  // Movie merge: group keys remap -> projection required.
  AnnotationId merged =
      fx.registry.AddSummary(fx.movie_domain, "WoodyAllen");
  MappingState state(&fx.registry, PhiConfig{});
  state.Merge({fx.match_point, fx.blue_jasmine}, merged);
  Homomorphism h;
  h.Set(fx.match_point, merged);
  h.Set(fx.blue_jasmine, merged);
  auto cand = fx.p0->Apply(h);

  EXPECT_EQ(oracle.Distance(*cand, state),
            SlowDistance(fx, *cand, state, valuations, vf));
}

TEST(DistanceFastPathTest, MixedMergeSequencesAgree) {
  MovieFixture fx;
  CancelSingleAnnotation cls;
  auto valuations = cls.Generate(*fx.p0, fx.ctx);
  EuclideanValFunc vf;
  EnumeratedDistance oracle(fx.p0.get(), &fx.registry, &vf, valuations);

  AnnotationId female = fx.registry.AddSummary(fx.user_domain, "Female");
  AnnotationId merged =
      fx.registry.AddSummary(fx.movie_domain, "WoodyAllen");
  MappingState state(&fx.registry, PhiConfig{});
  state.Merge({fx.u1, fx.u2}, female);
  state.Merge({fx.match_point, fx.blue_jasmine}, merged);
  Homomorphism h;
  h.Set(fx.u1, female);
  h.Set(fx.u2, female);
  h.Set(fx.match_point, merged);
  h.Set(fx.blue_jasmine, merged);
  auto cand = fx.p0->Apply(h);

  EXPECT_EQ(oracle.Distance(*cand, state),
            SlowDistance(fx, *cand, state, valuations, vf));
}

}  // namespace
}  // namespace prox
