#include "summarize/distance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "summarize/valuation_class.h"
#include "summarize/val_func.h"
#include "testing/fixtures.h"
#include "testing/reference_summarizer.h"

namespace prox {
namespace {

using testing_fixtures::MovieFixture;

TEST(EnumeratedDistanceTest, IdentityMappingHasZeroDistance) {
  MovieFixture fx;
  CancelSingleAnnotation cls;
  auto valuations = cls.Generate(*fx.p0, fx.ctx);
  EuclideanValFunc vf;
  EnumeratedDistance oracle(fx.p0.get(), &fx.registry, &vf, valuations);
  MappingState state(&fx.registry, PhiConfig{});
  EXPECT_EQ(oracle.Distance(*fx.p0, state), 0.0);
}

TEST(EnumeratedDistanceTest, Example423AudienceBeatsFemale) {
  // The flow of Example 4.2.3: mapping U1,U3 -> Audience is at distance 0;
  // mapping U1,U2 -> Female is not (cancelling U2 disagrees).
  MovieFixture fx;
  CancelSingleAnnotation cls({fx.user_domain});
  auto valuations = cls.Generate(*fx.p0, fx.ctx);
  EuclideanValFunc vf;
  EnumeratedDistance oracle(fx.p0.get(), &fx.registry, &vf, valuations);

  AnnotationId audience = fx.registry.AddSummary(fx.user_domain, "Audience");
  MappingState audience_state(&fx.registry, PhiConfig{});
  audience_state.Merge({fx.u1, fx.u3}, audience);
  Homomorphism ha;
  ha.Set(fx.u1, audience);
  ha.Set(fx.u3, audience);
  auto p_audience = fx.p0->Apply(ha);
  EXPECT_EQ(oracle.Distance(*p_audience, audience_state), 0.0);

  AnnotationId female = fx.registry.AddSummary(fx.user_domain, "Female");
  MappingState female_state(&fx.registry, PhiConfig{});
  female_state.Merge({fx.u1, fx.u2}, female);
  Homomorphism hf;
  hf.Set(fx.u1, female);
  hf.Set(fx.u2, female);
  auto p_female = fx.p0->Apply(hf);
  EXPECT_GT(oracle.Distance(*p_female, female_state), 0.0);
}

TEST(EnumeratedDistanceTest, MatchesBruteForceRederivation) {
  MovieFixture fx;
  CancelSingleAnnotation cls;
  auto valuations = cls.Generate(*fx.p0, fx.ctx);
  EuclideanValFunc vf;
  EnumeratedDistance oracle(fx.p0.get(), &fx.registry, &vf, valuations);

  AnnotationId female = fx.registry.AddSummary(fx.user_domain, "Female");
  MappingState state(&fx.registry, PhiConfig{});
  state.Merge({fx.u1, fx.u2}, female);
  Homomorphism h;
  h.Set(fx.u1, female);
  h.Set(fx.u2, female);
  auto cand = fx.p0->Apply(h);

  // The spec re-derives Definition 3.2.2 one valuation at a time, with no
  // caching (testing/reference_summarizer.h).
  const double expected = testing_reference::ReferenceDistance(
      {fx.p0.get(), &fx.registry, &vf, &valuations}, *cand, state);
  EXPECT_EQ(oracle.Distance(*cand, state), expected);
}

// Reduction order: Distance adds its per-valuation terms in ascending
// order within grain-sized chunks and the chunk partials in ascending
// chunk order, on the calling thread. That summation tree is part of the
// bytes, so it is checked bit for bit against terms computed one valuation
// at a time.

TEST(ReductionOrderTest, ChunkSumMatchesPerTermSumBitExact) {
  MovieFixture fx;
  CancelSingleAnnotation cls;
  const auto drawn = cls.Generate(*fx.p0, fx.ctx);
  ASSERT_FALSE(drawn.empty());
  // 103 valuations, deliberately not a grain multiple, with weights at
  // wildly different scales, so any reassociation of the summation tree
  // changes the result bits.
  std::vector<Valuation> valuations;
  for (int i = 0; i < 103; ++i) {
    const double weight =
        (1.5 + std::sin(static_cast<double>(i) + 0.5)) *
        std::pow(10.0, static_cast<double>(i % 13) - 6.0);
    const Valuation& v = drawn[static_cast<size_t>(i) % drawn.size()];
    valuations.emplace_back(v.false_set(), v.label(), weight);
  }
  EuclideanValFunc vf;
  EnumeratedDistance oracle(fx.p0.get(), &fx.registry, &vf, valuations);

  AnnotationId female = fx.registry.AddSummary(fx.user_domain, "Female");
  MappingState state(&fx.registry, PhiConfig{});
  state.Merge({fx.u1, fx.u2}, female);
  Homomorphism h;
  h.Set(fx.u1, female);
  h.Set(fx.u2, female);
  auto cand = fx.p0->Apply(h);

  const size_t n = fx.registry.size();
  std::vector<double> terms;
  double total_weight = 0.0;
  for (const Valuation& v : valuations) {
    const EvalResult orig = testing_reference::ProjectEvalResult(
        *cand, fx.p0->Evaluate(MaterializedValuation(v, n)),
        state.cumulative());
    const EvalResult summ = cand->Evaluate(state.Transform(v, n));
    terms.push_back(v.weight() * vf.Compute(orig, summ));
    total_weight += v.weight();
  }
  const size_t grain = EnumeratedDistance::kReductionGrain;
  double chunked = 0.0;
  for (size_t lo = 0; lo < terms.size(); lo += grain) {
    double partial = 0.0;  // ascending, plain + — the contract
    for (size_t i = lo; i < std::min(terms.size(), lo + grain); ++i) {
      partial += terms[i];
    }
    chunked += partial;
  }
  double flat = 0.0;
  for (double t : terms) flat += t;
  // The data must tell the two trees apart, or the check below shows
  // nothing about the order.
  ASSERT_NE(chunked, flat);

  double max_error = vf.MaxError(fx.p0->Evaluate(MaterializedValuation(n)));
  if (max_error <= 0.0) max_error = 1.0;
  const double expected = (chunked / total_weight) / max_error;
  EXPECT_EQ(oracle.Distance(*cand, state), expected);
  // Repeat calls reuse the oracle's thread-local blocks; the bits hold.
  EXPECT_EQ(oracle.Distance(*cand, state), expected);
}

TEST(ReductionOrderTest, EmptyAndSingleValuation) {
  MovieFixture fx;
  EuclideanValFunc vf;
  AnnotationId female = fx.registry.AddSummary(fx.user_domain, "Female");
  MappingState state(&fx.registry, PhiConfig{});
  state.Merge({fx.u1, fx.u2}, female);
  Homomorphism h;
  h.Set(fx.u1, female);
  h.Set(fx.u2, female);
  auto cand = fx.p0->Apply(h);

  EnumeratedDistance empty(fx.p0.get(), &fx.registry, &vf, {});
  EXPECT_EQ(empty.Distance(*cand, state), 0.0);

  // One valuation is one chunk holding one term: the distance is that
  // term's normalized error whatever its weight.
  const std::vector<Valuation> one = {Valuation({fx.u2}, "cancel u2", 2.5)};
  EnumeratedDistance single(fx.p0.get(), &fx.registry, &vf, one);
  const double expected = testing_reference::ReferenceDistance(
      {fx.p0.get(), &fx.registry, &vf, &one}, *cand, state);
  EXPECT_GT(expected, 0.0);
  EXPECT_EQ(single.Distance(*cand, state), expected);
}

TEST(EnumeratedDistanceTest, WeightsScaleContributions) {
  MovieFixture fx;
  // Two copies of the same valuation, one with triple weight, must give
  // the same distance as one copy (weighted average).
  std::vector<Valuation> uniform = {Valuation({fx.u2}, "a", 1.0)};
  std::vector<Valuation> weighted = {Valuation({fx.u2}, "a", 3.0)};
  EuclideanValFunc vf;
  EnumeratedDistance o1(fx.p0.get(), &fx.registry, &vf, uniform);
  EnumeratedDistance o2(fx.p0.get(), &fx.registry, &vf, weighted);

  AnnotationId female = fx.registry.AddSummary(fx.user_domain, "Female");
  MappingState state(&fx.registry, PhiConfig{});
  state.Merge({fx.u1, fx.u2}, female);
  Homomorphism h;
  h.Set(fx.u1, female);
  h.Set(fx.u2, female);
  auto cand = fx.p0->Apply(h);
  EXPECT_NEAR(o1.Distance(*cand, state), o2.Distance(*cand, state), 1e-12);
}

TEST(EnumeratedDistanceTest, NormalizedDistanceStaysInUnitInterval) {
  MovieFixture fx;
  CancelSingleAttribute cls;
  auto valuations = cls.Generate(*fx.p0, fx.ctx);
  EuclideanValFunc vf;
  EnumeratedDistance oracle(fx.p0.get(), &fx.registry, &vf, valuations);

  // Merge everything mergeable and check the bound.
  AnnotationId female = fx.registry.AddSummary(fx.user_domain, "Female");
  MappingState state(&fx.registry, PhiConfig{});
  state.Merge({fx.u1, fx.u2}, female);
  Homomorphism h;
  h.Set(fx.u1, female);
  h.Set(fx.u2, female);
  auto cand = fx.p0->Apply(h);
  double d = oracle.Distance(*cand, state);
  EXPECT_GE(d, 0.0);
  EXPECT_LE(d, 1.0);
}

/// The drawn class of the sampling estimator (Proposition 4.1.2).
std::vector<Valuation> Draw(const MovieFixture& fx,
                            SampledValuations::Options opts) {
  Result<SampledValuations> cls = SampledValuations::Create(opts);
  EXPECT_TRUE(cls.ok()) << cls.status().ToString();
  return cls.value().Generate(*fx.p0, fx.ctx);
}

TEST(SampledValuationsTest, RequiredSamplesMatchesHoeffding) {
  EXPECT_EQ(SampledValuations::RequiredSamples(0.05, 0.05).value(),
            static_cast<int>(
                std::ceil(std::log(2.0 / 0.05) / (2 * 0.05 * 0.05))));
  EXPECT_GT(SampledValuations::RequiredSamples(0.01, 0.05).value(),
            SampledValuations::RequiredSamples(0.1, 0.05).value());
  EXPECT_GT(SampledValuations::RequiredSamples(0.05, 0.01).value(),
            SampledValuations::RequiredSamples(0.05, 0.1).value());
}

TEST(SampledValuationsTest, RejectsInputsOutsideTheirRanges) {
  // ε = 0 would cast +inf to int; ε = 1e-5 needs ~1.8e10 samples, past
  // INT_MAX. Both are refused, not undefined behaviour.
  for (const auto& [epsilon, delta] :
       std::vector<std::pair<double, double>>{{0.0, 0.05},
                                              {0.05, 1.0},
                                              {1e-5, 0.05},
                                              {-0.1, 0.05},
                                              {1.5, 0.05},
                                              {0.05, 0.0},
                                              {std::nan(""), 0.05}}) {
    SCOPED_TRACE("epsilon=" + std::to_string(epsilon) +
                 " delta=" + std::to_string(delta));
    const Result<int> n = SampledValuations::RequiredSamples(epsilon, delta);
    ASSERT_FALSE(n.ok());
    EXPECT_EQ(n.status().code(), StatusCode::kInvalidArgument);
    SampledValuations::Options opts;
    opts.epsilon = epsilon;
    opts.delta = delta;
    EXPECT_FALSE(SampledValuations::Create(opts).ok());
  }
  EXPECT_TRUE(SampledValuations::RequiredSamples(1.0, 0.5).ok());
  SampledValuations::Options negative;
  negative.num_samples = -1;
  EXPECT_FALSE(SampledValuations::Create(negative).ok());
  // An explicit count does not consult (ε, δ).
  SampledValuations::Options counted;
  counted.epsilon = 0.0;
  counted.num_samples = 10;
  ASSERT_TRUE(SampledValuations::Create(counted).ok());
  EXPECT_EQ(SampledValuations::Create(counted).value().num_samples(), 10);
}

TEST(SampledValuationsTest, ZeroDistanceForIdentity) {
  MovieFixture fx;
  EuclideanValFunc vf;
  SampledValuations::Options opts;
  opts.num_samples = 200;
  EnumeratedDistance oracle(fx.p0.get(), &fx.registry, &vf, Draw(fx, opts));
  MappingState state(&fx.registry, PhiConfig{});
  EXPECT_EQ(oracle.Distance(*fx.p0, state), 0.0);
}

TEST(SampledValuationsTest, ConvergesToExhaustiveAverage) {
  // Proposition 4.1.2: the Monte-Carlo estimate over all 2^n valuations
  // approaches the exhaustive enumeration's value.
  MovieFixture fx;
  EuclideanValFunc vf;

  ExhaustiveValuations exhaustive_cls;
  auto all = exhaustive_cls.Generate(*fx.p0, fx.ctx);
  EnumeratedDistance exact(fx.p0.get(), &fx.registry, &vf, all);

  SampledValuations::Options opts;
  opts.num_samples = 20000;
  opts.seed = 99;
  EnumeratedDistance sampled(fx.p0.get(), &fx.registry, &vf, Draw(fx, opts));

  AnnotationId female = fx.registry.AddSummary(fx.user_domain, "Female");
  MappingState state(&fx.registry, PhiConfig{});
  state.Merge({fx.u1, fx.u2}, female);
  Homomorphism h;
  h.Set(fx.u1, female);
  h.Set(fx.u2, female);
  auto cand = fx.p0->Apply(h);

  double exact_d = exact.Distance(*cand, state);
  double approx_d = sampled.Distance(*cand, state);
  EXPECT_NEAR(approx_d, exact_d, 0.01);
}

TEST(SampledValuationsTest, DeterministicForFixedSeed) {
  MovieFixture fx;
  EuclideanValFunc vf;
  SampledValuations::Options opts;
  opts.num_samples = 500;
  opts.seed = 7;
  const std::vector<Valuation> drawn = Draw(fx, opts);
  EXPECT_EQ(drawn, Draw(fx, opts));
  EnumeratedDistance a(fx.p0.get(), &fx.registry, &vf, drawn);
  EnumeratedDistance b(fx.p0.get(), &fx.registry, &vf, Draw(fx, opts));

  AnnotationId female = fx.registry.AddSummary(fx.user_domain, "Female");
  MappingState state(&fx.registry, PhiConfig{});
  state.Merge({fx.u1, fx.u2}, female);
  Homomorphism h;
  h.Set(fx.u1, female);
  h.Set(fx.u2, female);
  auto cand = fx.p0->Apply(h);
  EXPECT_EQ(a.Distance(*cand, state), b.Distance(*cand, state));
}

class SamplingEpsilonTest : public ::testing::TestWithParam<double> {};

TEST_P(SamplingEpsilonTest, EstimateWithinEpsilonOfTruth) {
  // Statistical check of the (ε, δ) guarantee at several ε values; the
  // Hoeffding bound is conservative, so a single run landing inside ε is
  // the overwhelmingly likely outcome.
  const double epsilon = GetParam();
  MovieFixture fx;
  EuclideanValFunc vf;

  ExhaustiveValuations exhaustive_cls;
  auto all = exhaustive_cls.Generate(*fx.p0, fx.ctx);
  EnumeratedDistance exact(fx.p0.get(), &fx.registry, &vf, all);

  SampledValuations::Options opts;
  opts.epsilon = epsilon;
  opts.delta = 0.01;
  opts.seed = 1234;
  EnumeratedDistance sampled(fx.p0.get(), &fx.registry, &vf, Draw(fx, opts));
  EXPECT_EQ(static_cast<int>(sampled.num_valuations()),
            SampledValuations::RequiredSamples(epsilon, 0.01).value());

  AnnotationId female = fx.registry.AddSummary(fx.user_domain, "Female");
  MappingState state(&fx.registry, PhiConfig{});
  state.Merge({fx.u1, fx.u2}, female);
  Homomorphism h;
  h.Set(fx.u1, female);
  h.Set(fx.u2, female);
  auto cand = fx.p0->Apply(h);
  EXPECT_NEAR(sampled.Distance(*cand, state), exact.Distance(*cand, state),
              epsilon);
}

INSTANTIATE_TEST_SUITE_P(Epsilons, SamplingEpsilonTest,
                         ::testing::Values(0.02, 0.05, 0.1));

}  // namespace
}  // namespace prox
