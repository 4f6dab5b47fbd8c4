// ExpressionAtStep — the step-through navigation of the summary view.

#include <gtest/gtest.h>

#include "summarize/distance.h"
#include "summarize/report.h"
#include "summarize/val_func.h"
#include "summarize/valuation_class.h"
#include "testing/fixtures.h"

namespace prox {
namespace {

using testing_fixtures::MovieFixture;

struct ReplayHarness {
  MovieFixture fx;
  std::vector<Valuation> valuations;
  EuclideanValFunc vf;
  std::unique_ptr<EnumeratedDistance> oracle;
  SummaryOutcome outcome{nullptr, MappingState(nullptr, PhiConfig{}), {},
                         0.0,     0,
                         false,   0,
                         0.0};

  explicit ReplayHarness(SummarizerOptions options) {
    // Add U4 identical to U1 so two steps are possible after equivalence.
    uint32_t row = fx.ctx.tables.at(fx.user_domain)
                       .AddRow({"F", "Audience"})
                       .MoveValue();
    AnnotationId u4 = fx.registry.Add(fx.user_domain, "U4", row).MoveValue();
    fx.AddRating(u4, fx.blue_jasmine, 2);
    fx.Rebuild();

    CancelSingleAnnotation cls(std::vector<DomainId>{fx.user_domain});
    valuations = cls.Generate(*fx.p0, fx.ctx);
    oracle = std::make_unique<EnumeratedDistance>(fx.p0.get(), &fx.registry,
                                                  &vf, valuations);
    Summarizer s(fx.p0.get(), &fx.registry, &fx.ctx, &fx.constraints,
                 oracle.get(), &valuations, options);
    outcome = s.Run().MoveValue();
  }
};

TEST(ReplayTest, StepZeroIsOriginalWithoutEquivalence) {
  SummarizerOptions options;
  options.w_dist = 1.0;
  options.w_size = 0.0;
  options.max_steps = 2;
  options.group_equivalent_first = false;
  ReplayHarness h(options);

  auto at0 = ExpressionAtStep(*h.fx.p0, h.outcome, 0);
  ASSERT_TRUE(at0.ok());
  EXPECT_EQ(at0.value()->Size(), h.fx.p0->Size());
  EXPECT_EQ(at0.value()->ToString(h.fx.registry),
            h.fx.p0->ToString(h.fx.registry));
}

TEST(ReplayTest, IntermediateStepsMatchRecordedSizes) {
  SummarizerOptions options;
  options.w_dist = 0.5;
  options.w_size = 0.5;
  options.max_steps = 3;
  options.group_equivalent_first = false;
  ReplayHarness h(options);
  ASSERT_GE(h.outcome.steps.size(), 2u);

  for (size_t k = 1; k <= h.outcome.steps.size(); ++k) {
    auto at_k = ExpressionAtStep(*h.fx.p0, h.outcome, static_cast<int>(k));
    ASSERT_TRUE(at_k.ok()) << at_k.status();
    EXPECT_EQ(at_k.value()->Size(), h.outcome.steps[k - 1].size)
        << "step " << k;
  }
}

TEST(ReplayTest, FinalStepEqualsOutcomeSummary) {
  SummarizerOptions options;
  options.w_dist = 0.5;
  options.w_size = 0.5;
  options.max_steps = 3;
  ReplayHarness h(options);
  auto last = ExpressionAtStep(
      *h.fx.p0, h.outcome,
      static_cast<int>(h.outcome.state.summaries().size()) -
          h.outcome.equivalence_merges);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last.value()->ToString(h.fx.registry),
            h.outcome.summary->ToString(h.fx.registry));
}

TEST(ReplayTest, OutOfRangeIsError) {
  SummarizerOptions options;
  options.max_steps = 1;
  options.group_equivalent_first = false;
  ReplayHarness h(options);
  EXPECT_FALSE(ExpressionAtStep(*h.fx.p0, h.outcome, -1).ok());
  EXPECT_FALSE(ExpressionAtStep(*h.fx.p0, h.outcome, 99).ok());
}

}  // namespace
}  // namespace prox
