#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "datasets/movielens.h"
#include "ir/adopt.h"
#include "ir/agg_expr.h"
#include "ir/term_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "summarize/summarizer.h"
#include "summarize/val_func.h"
#include "summarize/valuation_class.h"
#include "testing/fixtures.h"

namespace prox {
namespace {

using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::SpanRecord;
using obs::TraceBuffer;
using testing_fixtures::MovieFixture;

/// Routes spans into a test-local buffer for the test's lifetime.
class ScopedTraceCapture {
 public:
  ScopedTraceCapture() { obs::SetDefaultTraceSink(&buffer_); }
  ~ScopedTraceCapture() { obs::SetDefaultTraceSink(nullptr); }
  std::vector<SpanRecord> Spans() const { return buffer_.Snapshot(); }

 private:
  TraceBuffer buffer_;
};

std::vector<SpanRecord> SpansNamed(const std::vector<SpanRecord>& spans,
                                   const char* name) {
  std::vector<SpanRecord> out;
  for (const SpanRecord& s : spans) {
    if (std::string_view(s.name) == name) out.push_back(s);
  }
  return out;
}

struct Harness {
  MovieFixture fx;
  std::vector<Valuation> valuations;
  EuclideanValFunc vf;
  std::unique_ptr<EnumeratedDistance> oracle;

  Harness() {
    CancelSingleAnnotation cls(std::vector<DomainId>{fx.user_domain});
    valuations = cls.Generate(*fx.p0, fx.ctx);
    oracle = std::make_unique<EnumeratedDistance>(fx.p0.get(), &fx.registry,
                                                  &vf, valuations);
  }

  Result<SummaryOutcome> Run(SummarizerOptions options) {
    Summarizer s(fx.p0.get(), &fx.registry, &fx.ctx, &fx.constraints,
                 oracle.get(), &valuations, options);
    return s.Run();
  }
};

TEST(InstrumentationTest, RunIncrementsRegistryCounters) {
  if (!obs::Enabled()) GTEST_SKIP() << "prox::obs compiled out";
  Harness h;
  SummarizerOptions options;
  options.max_steps = 3;
  options.group_equivalent_first = false;
  const MetricsSnapshot before = MetricsRegistry::Default().Snapshot();
  auto outcome = h.Run(options);
  const MetricsSnapshot after = MetricsRegistry::Default().Snapshot();
  ASSERT_TRUE(outcome.ok());
  const SummaryOutcome& o = outcome.value();
  EXPECT_EQ(after.CounterValue("prox_summarize_runs_total") -
                before.CounterValue("prox_summarize_runs_total"),
            1.0);
  EXPECT_EQ(after.CounterValue("prox_summarize_steps_total") -
                before.CounterValue("prox_summarize_steps_total"),
            static_cast<double>(o.steps.size()));
  double scored = 0.0;
  for (const StepRecord& s : o.steps) scored += s.num_candidates;
  EXPECT_EQ(after.CounterValue("prox_summarize_candidates_scored_total") -
                before.CounterValue("prox_summarize_candidates_scored_total"),
            scored);
  // Every candidate evaluation consults the enumerated oracle (plus one
  // distance probe per committed step and one for the initial distance).
  EXPECT_GE(after.CounterValue("prox_distance_enumerated_calls_total") -
                before.CounterValue("prox_distance_enumerated_calls_total"),
            scored);
}

TEST(InstrumentationTest, SpanDurationsAreTheStepRecordTimings) {
  if (!obs::Enabled()) GTEST_SKIP() << "prox::obs compiled out";
  ScopedTraceCapture capture;
  Harness h;
  SummarizerOptions options;
  options.max_steps = 3;
  options.group_equivalent_first = false;
  auto outcome = h.Run(options);
  ASSERT_TRUE(outcome.ok());
  const SummaryOutcome& o = outcome.value();
  const std::vector<SpanRecord> spans = capture.Spans();

  const auto steps = SpansNamed(spans, "summarize.step");
  ASSERT_EQ(steps.size(), o.steps.size());
  for (size_t i = 0; i < steps.size(); ++i) {
    // Not "within 1%": StepRecord timings are views over the spans, so
    // the two numbers are literally the same measurement.
    EXPECT_DOUBLE_EQ(o.steps[i].step_nanos,
                     static_cast<double>(steps[i].duration_nanos));
  }

  const auto runs = SpansNamed(spans, "summarize.run");
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_DOUBLE_EQ(o.total_nanos,
                   static_cast<double>(runs[0].duration_nanos));
  // Steps nest under the run.
  for (const SpanRecord& s : steps) {
    EXPECT_EQ(s.parent_id, runs[0].id);
    EXPECT_EQ(s.depth, runs[0].depth + 1);
  }

  const auto evals = SpansNamed(spans, "summarize.candidate_eval");
  ASSERT_EQ(evals.size(), o.steps.size());
  for (size_t i = 0; i < evals.size(); ++i) {
    EXPECT_EQ(evals[i].parent_id, steps[i].id);
    EXPECT_DOUBLE_EQ(
        o.steps[i].candidate_eval_nanos,
        static_cast<double>(evals[i].duration_nanos) /
            o.steps[i].num_candidates);
  }
}

TEST(InstrumentationTest, GroupKeyMergeCandidatesAreBatched) {
  if (!obs::Enabled()) GTEST_SKIP() << "prox::obs compiled out";
  Harness h;
  // A movie-domain rule makes group-key merge candidates appear. The
  // batch kernels project the base side into such a candidate's group
  // slots, so every valuation of every candidate is priced in a batch and
  // none falls back to the per-valuation scalar loop.
  h.fx.constraints.SetRule(h.fx.movie_domain,
                           std::make_unique<AnyMergeRule>("movies"));
  CandidateGenerator generator(&h.fx.constraints, &h.fx.ctx);
  CandidateSet candidates;
  generator.Generate(*h.fx.p0, MappingState(&h.fx.registry, PhiConfig{}),
                     CandidateOptions{}, &candidates);
  ASSERT_TRUE(std::any_of(candidates.begin(), candidates.end(),
                          [&](const Candidate& c) {
                            return c.domain == h.fx.movie_domain;
                          }));

  SummarizerOptions options;
  options.max_steps = 1;
  options.group_equivalent_first = false;
  const MetricsSnapshot before = MetricsRegistry::Default().Snapshot();
  auto outcome = h.Run(options);
  const MetricsSnapshot after = MetricsRegistry::Default().Snapshot();
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.value().steps.size(), 1u);
  EXPECT_EQ(outcome.value().steps[0].num_candidates,
            static_cast<int>(candidates.size()));
  auto delta = [&](const char* name) {
    return after.CounterValue(name) - before.CounterValue(name);
  };
  EXPECT_EQ(delta("prox_kernel_scalar_fallback_total"), 0.0);
  EXPECT_GT(delta("prox_kernel_batch_evals_total"), 0.0);
  EXPECT_EQ(delta("prox_kernel_batch_evals_total"),
            delta("prox_distance_enumerated_evals_total"));
}

/// Terms that the Applies of `outcome`'s run itself should have counted:
/// the equivalence pass or warm replay (one Apply of p0) and one Apply of
/// the current expression per committed step — replayed here.
double ExpectedApplyTerms(const ProvenanceExpression& p0,
                          const AnnotationRegistry& registry,
                          const PhiConfig& phi, const SummaryOutcome& outcome,
                          int leading_merges) {
  auto terms = [](const ProvenanceExpression& e) {
    return static_cast<double>(e.AsAggregate()->num_terms());
  };
  std::unique_ptr<ProvenanceExpression> current =
      ir::Adopt(p0, std::make_shared<ir::TermPool>());
  double expected = 0.0;
  if (leading_merges > 0) {
    MappingState leading(&registry, phi);
    leading.Replay({outcome.state.summaries().begin(),
                    outcome.state.summaries().begin() + leading_merges});
    expected += terms(*current);
    current = current->Apply(leading.cumulative());
  }
  for (const StepRecord& step : outcome.steps) {
    expected += terms(*current);
    Homomorphism h;
    for (AnnotationId root : step.merged_roots) h.Set(root, step.summary);
    current = current->Apply(h);
  }
  return expected;
}

TEST(InstrumentationTest, PricingAppliesOnlyTheWinners) {
  // Step pricing prices candidates without building them: over a run, the
  // Apply counters move only for the equivalence pass or the warm replay
  // and for the one Apply that commits each step's winner.
  if (!obs::Enabled()) GTEST_SKIP() << "prox::obs compiled out";
  MovieLensConfig config;
  config.num_users = 12;
  config.num_movies = 4;
  config.ratings_per_user = 3;
  Dataset ds = MovieLensGenerator::Generate(config);
  const std::vector<Valuation> valuations =
      ds.valuation_class->Generate(*ds.provenance, ds.ctx);
  EnumeratedDistance oracle(ds.provenance.get(), ds.registry.get(),
                            ds.val_func.get(), valuations);
  auto applied = [] {
    const MetricsSnapshot m = MetricsRegistry::Default().Snapshot();
    return m.CounterValue("prox_ir_apply_terms_shared_total") +
           m.CounterValue("prox_ir_apply_terms_rewritten_total");
  };

  SummarizerOptions options;
  options.max_steps = 6;
  options.phi = ds.phi;
  Summarizer cold(ds.provenance.get(), ds.registry.get(), &ds.ctx,
                  &ds.constraints, &oracle, &valuations, options);
  double before = applied();
  auto cold_outcome = cold.Run();
  double delta = applied() - before;
  ASSERT_TRUE(cold_outcome.ok());
  const SummaryOutcome& c = cold_outcome.value();
  ASSERT_GT(c.steps.size(), 1u);
  EXPECT_EQ(delta, ExpectedApplyTerms(*ds.provenance, *ds.registry, ds.phi, c,
                                      c.equivalence_merges));

  // A warm run over the cold run's merges replays them with one Apply.
  const auto seed = c.state.summaries();
  options.warm_seed = &seed;
  Summarizer warm(ds.provenance.get(), ds.registry.get(), &ds.ctx,
                  &ds.constraints, &oracle, &valuations, options);
  before = applied();
  auto warm_outcome = warm.Run();
  delta = applied() - before;
  ASSERT_TRUE(warm_outcome.ok());
  const SummaryOutcome& w = warm_outcome.value();
  EXPECT_EQ(w.warm_replayed_merges, static_cast<int>(seed.size()));
  EXPECT_EQ(delta, ExpectedApplyTerms(*ds.provenance, *ds.registry, ds.phi, w,
                                      w.warm_replayed_merges));
}

TEST(InstrumentationTest, TimingsSurviveDisabledObservability) {
  Harness h;
  SummarizerOptions options;
  options.max_steps = 1;
  options.group_equivalent_first = false;
  obs::SetEnabled(false);
  auto outcome = h.Run(options);
  obs::SetEnabled(true);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.value().steps.size(), 1u);
  // Spans still measure when recording is off.
  EXPECT_GT(outcome.value().steps[0].step_nanos, 0.0);
  EXPECT_GT(outcome.value().total_nanos, 0.0);
}

}  // namespace
}  // namespace prox
