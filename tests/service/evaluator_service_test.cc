#include "service/evaluator_service.h"

#include <gtest/gtest.h>

#include "datasets/movielens.h"
#include "service/summarization_service.h"

namespace prox {
namespace {

Dataset SmallMovies() {
  MovieLensConfig config;
  config.num_users = 12;
  config.num_movies = 5;
  return MovieLensGenerator::Generate(config);
}

TEST(EvaluatorServiceTest, EmptyAssignmentIsAllTrue) {
  Dataset ds = SmallMovies();
  EvaluatorService svc(&ds);
  auto report = svc.Evaluate(*ds.provenance, nullptr, Assignment{});
  ASSERT_TRUE(report.ok());
  EvalResult all_true =
      ds.provenance->Evaluate(MaterializedValuation(ds.registry->size()));
  EXPECT_EQ(report.value().result, all_true);
  EXPECT_EQ(report.value().rows.size(), all_true.coords().size());
  EXPECT_GT(report.value().eval_nanos, 0);
}

TEST(EvaluatorServiceTest, FalseAnnotationByName) {
  Dataset ds = SmallMovies();
  EvaluatorService svc(&ds);
  AnnotationId u = ds.registry->AnnotationsInDomain(ds.domain("user"))[0];
  Assignment assignment;
  assignment.false_annotations = {ds.registry->name(u)};
  auto report = svc.Evaluate(*ds.provenance, nullptr, assignment);
  ASSERT_TRUE(report.ok());
  EvalResult expected = ds.provenance->Evaluate(
      MaterializedValuation(Valuation({u}), ds.registry->size()));
  EXPECT_EQ(report.value().result, expected);
}

TEST(EvaluatorServiceTest, UnknownAnnotationIsError) {
  Dataset ds = SmallMovies();
  EvaluatorService svc(&ds);
  Assignment assignment;
  assignment.false_annotations = {"UID99999"};
  EXPECT_EQ(svc.Evaluate(*ds.provenance, nullptr, assignment)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(EvaluatorServiceTest, FalseAttributeCancelsAllCarriers) {
  // "All Male users were not asked to rate" (Section 7.1's scenario).
  Dataset ds = SmallMovies();
  EvaluatorService svc(&ds);
  Assignment assignment;
  assignment.false_attributes = {{"Gender", "M"}};
  auto valuation = svc.ResolveAssignment(assignment);
  ASSERT_TRUE(valuation.ok());
  const EntityTable* users = ds.ctx.TableFor(ds.domain("user"));
  AttrId gender = users->FindAttribute("Gender").MoveValue();
  for (AnnotationId u :
       ds.registry->AnnotationsInDomain(ds.domain("user"))) {
    bool male = users->ValueNameOf(ds.registry->entity_row(u), gender) == "M";
    EXPECT_EQ(valuation.value().IsFalse(u), male);
  }
}

TEST(EvaluatorServiceTest, UnknownAttributeIsError) {
  Dataset ds = SmallMovies();
  EvaluatorService svc(&ds);
  Assignment assignment;
  assignment.false_attributes = {{"ShoeSize", "44"}};
  EXPECT_EQ(svc.Evaluate(*ds.provenance, nullptr, assignment)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(EvaluatorServiceTest, SummaryEvaluationUsesTransformedValuation) {
  // Evaluate the same assignment on original and summary: the summary uses
  // v^{h,φ} so a partially-cancelled group stays alive (approximate
  // provisioning).
  Dataset ds = SmallMovies();
  SummarizationService summarize(&ds);
  SummarizationRequest request;
  request.w_dist = 1.0;
  request.w_size = 0.0;
  request.max_steps = 5;
  auto outcome = summarize.Summarize(*ds.provenance, request);
  ASSERT_TRUE(outcome.ok());
  ASSERT_GT(outcome.value().state.num_merges(), 0);

  EvaluatorService svc(&ds);
  // Cancel one member of the first summary group.
  const auto& [summary, members] = outcome.value().state.summaries().front();
  (void)summary;
  Assignment assignment;
  assignment.false_annotations = {ds.registry->name(members.front())};

  auto exact = svc.Evaluate(*ds.provenance, nullptr, assignment);
  auto approx =
      svc.Evaluate(*outcome.value().summary, &outcome.value().state,
                   assignment);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(approx.ok());
  // Both report one row per (possibly merged) movie.
  EXPECT_FALSE(exact.value().rows.empty());
  EXPECT_FALSE(approx.value().rows.empty());
}

TEST(EvaluatorServiceTest, RowsCarryGroupNames) {
  Dataset ds = SmallMovies();
  EvaluatorService svc(&ds);
  auto report = svc.Evaluate(*ds.provenance, nullptr, Assignment{});
  ASSERT_TRUE(report.ok());
  for (const auto& [label, value] : report.value().rows) {
    EXPECT_TRUE(ds.registry->Find(label).ok()) << label;
    EXPECT_GE(value, 0.0);
  }
}

}  // namespace
}  // namespace prox
