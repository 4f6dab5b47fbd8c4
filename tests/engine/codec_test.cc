#include "engine/codec.h"

#include <string>

#include <gtest/gtest.h>

#include "common/json.h"
#include "datasets/movielens.h"
#include "service/session.h"

namespace prox {
namespace engine {
namespace {

JsonValue MustParse(const std::string& text) {
  auto parsed = ParseJson(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.ok() ? parsed.value() : JsonValue::Null();
}

Dataset TestDataset() {
  MovieLensConfig config;
  config.num_users = 12;
  config.num_movies = 5;
  config.seed = 7;
  return MovieLensGenerator::Generate(config);
}

TEST(WireTest, FingerprintIsStableAndContentSensitive) {
  Dataset a = TestDataset();
  Dataset b = TestDataset();
  EXPECT_EQ(DatasetFingerprint(a), DatasetFingerprint(b));
  EXPECT_EQ(DatasetFingerprint(a).size(), 16u);

  MovieLensConfig other;
  other.num_users = 12;
  other.num_movies = 5;
  other.seed = 8;  // different content
  Dataset c = MovieLensGenerator::Generate(other);
  EXPECT_NE(DatasetFingerprint(a), DatasetFingerprint(c));
}

TEST(WireTest, SelectionKeyCanonicalizesOrderAndCase) {
  SelectionCriteria first;
  first.titles = {"Bravo", "Alpha", "Bravo"};
  first.title_substring = "WaR";
  SelectionCriteria second;
  second.titles = {"Alpha", "Bravo"};
  second.title_substring = "war";
  EXPECT_EQ(CanonicalSelectionKey(first), CanonicalSelectionKey(second));

  SelectionCriteria third = second;
  third.year = 1999;
  EXPECT_NE(CanonicalSelectionKey(second), CanonicalSelectionKey(third));
  EXPECT_NE(CanonicalSelectionKey(second), SelectAllKey());
}

TEST(WireTest, RequestKeyIgnoresThreadsOnly) {
  SummarizationRequest base;
  SummarizationRequest threaded = base;
  threaded.threads = 8;
  // Thread count never changes results (the determinism contract), so it
  // must not fragment the cache.
  EXPECT_EQ(CanonicalRequestKey(base), CanonicalRequestKey(threaded));

  SummarizationRequest other = base;
  other.w_dist = base.w_dist + 1e-12;  // bit-exact doubles in the key
  EXPECT_NE(CanonicalRequestKey(base), CanonicalRequestKey(other));

  SummarizationRequest steps = base;
  steps.max_steps = base.max_steps + 1;
  EXPECT_NE(CanonicalRequestKey(base), CanonicalRequestKey(steps));

  EXPECT_EQ(SummaryCacheKey("fp", "all", base),
            "fp|all|" + CanonicalRequestKey(base));
}

TEST(WireTest, SelectionCriteriaFromJsonVariants) {
  bool select_all = false;
  auto all = SelectionCriteriaFromJson(MustParse("{\"all\":true}"),
                                       &select_all);
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(select_all);

  auto criteria = SelectionCriteriaFromJson(
      MustParse("{\"titles\":[\"Heat\"],\"genres\":[\"Drama\"],"
                "\"year\":1995,\"title_substring\":\"he\"}"),
      &select_all);
  ASSERT_TRUE(criteria.ok());
  EXPECT_FALSE(select_all);
  EXPECT_EQ(criteria.value().titles, std::vector<std::string>{"Heat"});
  EXPECT_EQ(criteria.value().genres, std::vector<std::string>{"Drama"});
  ASSERT_TRUE(criteria.value().year.has_value());
  EXPECT_EQ(*criteria.value().year, 1995);

  auto unknown = SelectionCriteriaFromJson(MustParse("{\"movie\":\"Heat\"}"),
                                           &select_all);
  EXPECT_FALSE(unknown.ok());
  auto wrong_type = SelectionCriteriaFromJson(MustParse("{\"titles\":1}"),
                                              &select_all);
  EXPECT_FALSE(wrong_type.ok());
  // A year outside int range is rejected, not narrowed onto another year.
  for (const char* body :
       {"{\"year\":4294969291}", "{\"year\":-2147483649}"}) {
    auto out_of_range =
        SelectionCriteriaFromJson(MustParse(body), &select_all);
    EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument)
        << body;
  }
}

TEST(WireTest, SummarizationRequestFromJsonDefaultsAndEnums) {
  auto empty = SummarizationRequestFromJson(MustParse("{}"));
  ASSERT_TRUE(empty.ok());
  SummarizationRequest defaults;
  EXPECT_EQ(empty.value().w_dist, defaults.w_dist);
  EXPECT_EQ(empty.value().max_steps, defaults.max_steps);

  auto full = SummarizationRequestFromJson(MustParse(
      "{\"w_dist\":0.7,\"w_size\":0.3,\"target_dist\":0.5,"
      "\"target_size\":3,\"max_steps\":4,\"threads\":2,"
      "\"valuation_class\":\"cancel_single_attribute\","
      "\"val_func\":\"euclidean\"}"));
  ASSERT_TRUE(full.ok());
  EXPECT_DOUBLE_EQ(full.value().w_dist, 0.7);
  EXPECT_EQ(full.value().target_size, 3);
  EXPECT_EQ(full.value().valuation_class,
            SummarizationRequest::ValuationClassKind::kCancelSingleAttribute);
  EXPECT_EQ(full.value().val_func,
            SummarizationRequest::ValFuncKind::kEuclidean);

  EXPECT_FALSE(
      SummarizationRequestFromJson(MustParse("{\"val_func\":\"cosine\"}"))
          .ok());
  EXPECT_FALSE(
      SummarizationRequestFromJson(MustParse("{\"bogus\":1}")).ok());
  // int knobs reject values outside int range instead of narrowing them
  // (4294967297 would otherwise alias max_steps=1, cache key included).
  for (const char* body :
       {"{\"max_steps\":4294967297}", "{\"max_steps\":-2147483649}",
        "{\"threads\":4294967297}", "{\"threads\":9223372036854775807}"}) {
    auto out_of_range = SummarizationRequestFromJson(MustParse(body));
    EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument)
        << body;
  }
}

TEST(WireTest, AssignmentFromJson) {
  auto assignment = AssignmentFromJson(MustParse(
      "{\"false_annotations\":[\"u3\"],"
      "\"false_attributes\":[{\"attribute\":\"Gender\",\"value\":\"M\"}]}"));
  ASSERT_TRUE(assignment.ok());
  EXPECT_EQ(assignment.value().false_annotations,
            std::vector<std::string>{"u3"});
  ASSERT_EQ(assignment.value().false_attributes.size(), 1u);
  EXPECT_EQ(assignment.value().false_attributes[0].first, "Gender");
  EXPECT_EQ(assignment.value().false_attributes[0].second, "M");

  EXPECT_FALSE(AssignmentFromJson(MustParse("{\"oops\":[]}")).ok());
}

TEST(WireTest, SummaryOutcomeSerializationIsDeterministic) {
  // Two sessions over identical datasets summarize with identical knobs:
  // the canonical serialization must be byte-identical even though each
  // run mints its own summary AnnotationIds (ids are excluded, names are
  // not — fresh registries assign the same names).
  SummarizationRequest request;
  request.w_dist = 0.7;
  request.w_size = 0.3;
  request.max_steps = 6;

  std::string first, second;
  for (std::string* out : {&first, &second}) {
    ProxSession session(TestDataset());
    session.SelectAll();
    auto size = session.Summarize(request);
    ASSERT_TRUE(size.ok()) << size.status().ToString();
    ProxSession::LockedView view = session.Lock();
    *out = WriteJson(SummaryOutcomeToJson(*view.outcome(),
                                          *view.dataset().registry));
  }
  EXPECT_EQ(first, second);

  // The document parses and exposes the advertised fields, none of the
  // nondeterministic ones.
  JsonValue document = MustParse(first);
  EXPECT_NE(document.Find("final_size"), nullptr);
  EXPECT_NE(document.Find("final_distance"), nullptr);
  EXPECT_NE(document.Find("steps"), nullptr);
  EXPECT_NE(document.Find("groups"), nullptr);
  EXPECT_NE(document.Find("expression"), nullptr);
  EXPECT_EQ(document.Find("total_nanos"), nullptr);
  EXPECT_EQ(first.find("nanos"), std::string::npos);
}

TEST(WireTest, StatusMappings) {
  EXPECT_EQ(HttpStatusForCode(StatusCode::kInvalidArgument), 400);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kNotFound), 404);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kFailedPrecondition), 409);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kUnimplemented), 501);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kInternal), 500);

  JsonValue error = StatusToJson(Status::InvalidArgument("bad knob"));
  const JsonValue* payload = error.Find("error");
  ASSERT_NE(payload, nullptr);
  ASSERT_NE(payload->Find("message"), nullptr);
  EXPECT_NE(payload->Find("message")->string_value().find("bad knob"),
            std::string::npos);
}

}  // namespace
}  // namespace engine
}  // namespace prox
