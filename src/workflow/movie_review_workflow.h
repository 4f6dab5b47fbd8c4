#ifndef PROX_WORKFLOW_MOVIE_REVIEW_WORKFLOW_H_
#define PROX_WORKFLOW_MOVIE_REVIEW_WORKFLOW_H_

#include <memory>
#include <string>
#include <vector>

#include "provenance/agg_value.h"
#include "provenance/expression.h"
#include "semantics/entity_table.h"
#include "workflow/module.h"

namespace prox {

/// A raw review as crawled from a platform, before sanitization.
struct RawReview {
  std::string uid;
  std::string movie;
  double score = 0.0;
};

/// \brief Reviewing module, collection half (Figure 2.1): ingests the raw
/// reviews of one platform, updates the Stats table (NumRate count and
/// MaxRate per user — "each such module updates statistics in the Stats
/// table"), and emits the raw stream on edge `<platform>.raw`.
///
/// Stats tuples are annotated S_<uid> on first touch; the annotations feed
/// the sanitizer's guards.
class ReviewCollectorModule : public Module {
 public:
  ReviewCollectorModule(std::string platform, std::vector<RawReview> reviews)
      : Module("collect:" + platform),
        platform_(std::move(platform)),
        reviews_(std::move(reviews)) {}

  Status Run(WorkflowContext* ctx) override;

 private:
  std::string platform_;
  std::vector<RawReview> reviews_;
};

/// \brief Reviewing module, sanitizing half (Figure 2.1): joins the raw
/// stream with Users and Stats, keeps reviews of users listed under
/// `role` who are "active" (more than `min_reviews` reviews), and emits a
/// sanitized stream whose records carry provenance
///   U_uid  with guard  [S_uid · U_uid ⊗ NumRate > min_reviews]
/// — exactly the sub-expressions of Example 2.2.1.
class SanitizingModule : public Module {
 public:
  SanitizingModule(std::string platform, std::string role,
                   double min_reviews = 2.0)
      : Module("sanitize:" + platform),
        platform_(std::move(platform)),
        role_(std::move(role)),
        min_reviews_(min_reviews) {}

  Status Run(WorkflowContext* ctx) override;

 private:
  std::string platform_;
  std::string role_;
  double min_reviews_;
};

/// \brief Aggregator module (Figure 2.1): combines all sanitized streams
/// into per-movie aggregates, writing the Movies result table and keeping
/// the full provenance expression
///   ⊕_i  U_i · [S_i·U_i ⊗ n_i > 2] ⊗ (score_i, 1)
/// grouped per movie (Example 2.2.1's provenance-aware MaxRate value).
class AggregatorModule : public Module {
 public:
  AggregatorModule(std::vector<std::string> input_edges, AggKind agg)
      : Module("aggregate"),
        input_edges_(std::move(input_edges)),
        agg_(agg) {}

  Status Run(WorkflowContext* ctx) override;

  /// The provenance of the aggregated result, in prox::ir form (valid
  /// after Run).
  const ProvenanceExpression* provenance() const { return provenance_.get(); }
  std::unique_ptr<ProvenanceExpression> TakeProvenance() {
    return std::move(provenance_);
  }

 private:
  std::vector<std::string> input_edges_;
  AggKind agg_;
  std::unique_ptr<ProvenanceExpression> provenance_;
};

/// \brief Convenience assembly of the Figure 2.1 workflow: a Users table,
/// per-platform collector + sanitizer pairs, and a final aggregator.
///
/// Usage:
///   MovieReviewWorkflowBuilder builder(&registry);
///   builder.AddUser("u1", "F", "audience");
///   builder.AddPlatform("imdb", "audience", {{"u1", "Match Point", 3}});
///   auto run = builder.Run(AggKind::kMax);   // provenance + tables
struct MovieReviewRun {
  WorkflowDatabase db;
  std::unique_ptr<ProvenanceExpression> provenance;
  /// The users' attribute tuples for the semantics layer (Gender, Role),
  /// with user annotations registered against its rows — plug it into a
  /// SemanticContext to drive constraints and attribute valuations.
  EntityTable user_attributes;
};

class MovieReviewWorkflowBuilder {
 public:
  explicit MovieReviewWorkflowBuilder(AnnotationRegistry* registry);

  /// Registers a user with a U_<uid> annotation.
  Status AddUser(const std::string& uid, const std::string& gender,
                 const std::string& role);

  /// Adds a reviewing platform crawling `reviews`, sanitized for `role`.
  void AddPlatform(const std::string& platform, const std::string& role,
                   std::vector<RawReview> reviews, double min_reviews = 2.0);

  /// Builds the database, runs collectors, sanitizers and the aggregator.
  Result<MovieReviewRun> Run(AggKind agg);

 private:
  struct Platform {
    std::string name;
    std::string role;
    std::vector<RawReview> reviews;
    double min_reviews;
  };

  AnnotationRegistry* registry_;
  std::vector<std::vector<std::string>> users_;  // uid, gender, role
  std::vector<Platform> platforms_;
};

}  // namespace prox

#endif  // PROX_WORKFLOW_MOVIE_REVIEW_WORKFLOW_H_
