#include "workflow/movie_review_workflow.h"

#include <cstdlib>

#include "common/str_util.h"
#include "ir/agg_expr.h"

namespace prox {

namespace {

/// Interns `name` in `domain`, returning the existing annotation when the
/// name was registered before.
AnnotationId InternAnnotation(AnnotationRegistry* registry,
                              const std::string& domain_name,
                              const std::string& name) {
  auto found = registry->Find(name);
  if (found.ok()) return found.value();
  DomainId domain = registry->AddDomain(domain_name);
  return registry->Add(domain, name).MoveValue();
}

}  // namespace

Status ReviewCollectorModule::Run(WorkflowContext* ctx) {
  AnnotatedTable* stats;
  PROX_ASSIGN_OR_RETURN(stats, ctx->db->Table("Stats"));

  FlowBundle bundle;
  bundle.schema = {"UID", "Movie", "Score"};
  for (const RawReview& review : reviews_) {
    // Update per-user statistics, annotating the Stats tuple S_<uid> on
    // first touch.
    std::vector<size_t> hits = stats->Find("UID", review.uid);
    if (hits.empty()) {
      AnnotationId s_ann =
          InternAnnotation(ctx->registry, "stats", "S_" + review.uid);
      PROX_RETURN_NOT_OK(stats->Insert(
          {review.uid, "1", FormatDouble(review.score, 1)}, s_ann));
    } else {
      AnnotatedTuple* row = stats->mutable_row(hits[0]);
      size_t num_idx = stats->ColumnIndex("NumRate").value();
      size_t max_idx = stats->ColumnIndex("MaxRate").value();
      int num = std::atoi(row->values[num_idx].c_str()) + 1;
      double max_rate = std::strtod(row->values[max_idx].c_str(), nullptr);
      if (review.score > max_rate) max_rate = review.score;
      row->values[num_idx] = std::to_string(num);
      row->values[max_idx] = FormatDouble(max_rate, 1);
    }

    FlowRecord record;
    record.values = {review.uid, review.movie,
                     FormatDouble(review.score, 1)};
    bundle.records.push_back(std::move(record));
  }
  ctx->edges[platform_ + ".raw"] = std::move(bundle);
  return Status::OK();
}

Status SanitizingModule::Run(WorkflowContext* ctx) {
  const FlowBundle* raw;
  PROX_ASSIGN_OR_RETURN(raw, ctx->Edge(platform_ + ".raw"));
  const AnnotatedTable* users;
  PROX_ASSIGN_OR_RETURN(users, ctx->db->Table("Users"));
  const AnnotatedTable* stats;
  PROX_ASSIGN_OR_RETURN(stats, ctx->db->Table("Stats"));

  FlowBundle sanitized;
  sanitized.schema = {"UID", "Movie", "Score"};
  for (const FlowRecord& record : raw->records) {
    const std::string& uid = record.values[0];

    // Join with Users: keep only reviews of users listed under the
    // module's role.
    std::vector<size_t> user_rows = users->Find("UID", uid);
    if (user_rows.empty()) continue;
    if (users->Value(user_rows[0], "Role") != role_) continue;
    AnnotationId u_ann = users->row(user_rows[0]).annotation;

    // Join with Stats: attach the activity guard
    // [S·U ⊗ NumRate > min_reviews].
    std::vector<size_t> stat_rows = stats->Find("UID", uid);
    if (stat_rows.empty()) continue;
    AnnotationId s_ann = stats->row(stat_rows[0]).annotation;
    double num_rate =
        std::strtod(stats->Value(stat_rows[0], "NumRate").c_str(), nullptr);

    FlowRecord out;
    out.values = record.values;
    out.provenance = Monomial({u_ann});
    out.guard = Guard(Monomial({s_ann, u_ann}), num_rate, CompareOp::kGt,
                      min_reviews_);
    sanitized.records.push_back(std::move(out));
  }
  ctx->edges[platform_ + ".sanitized"] = std::move(sanitized);
  return Status::OK();
}

Status AggregatorModule::Run(WorkflowContext* ctx) {
  auto expr = std::make_unique<ir::IrAggregateExpression>(
      agg_, std::make_shared<ir::TermPool>());
  AnnotatedTable* movies;
  PROX_ASSIGN_OR_RETURN(movies, ctx->db->Table("Movies"));

  for (const std::string& edge : input_edges_) {
    const FlowBundle* bundle;
    PROX_ASSIGN_OR_RETURN(bundle, ctx->Edge(edge));
    for (const FlowRecord& record : bundle->records) {
      const std::string& movie = record.values[1];
      double score = std::strtod(record.values[2].c_str(), nullptr);
      AnnotationId movie_ann =
          InternAnnotation(ctx->registry, "movie", movie);

      expr->AddTerm(record.provenance * Monomial({movie_ann}), movie_ann,
                    AggValue{score, 1.0}, record.guard);
    }
  }
  expr->Canonicalize();
  provenance_ = std::move(expr);

  // Materialize the aggregated Movies table (all-true semantics).
  MaterializedValuation all_true(ctx->registry->size());
  EvalResult result = provenance_->Evaluate(all_true);
  if (result.kind() == EvalResult::Kind::kVector) {
    for (const auto& coord : result.coords()) {
      PROX_RETURN_NOT_OK(movies->Insert(
          {ctx->registry->name(coord.group), FormatDouble(coord.value, 1)},
          coord.group));
    }
  }
  return Status::OK();
}

MovieReviewWorkflowBuilder::MovieReviewWorkflowBuilder(
    AnnotationRegistry* registry)
    : registry_(registry) {}

Status MovieReviewWorkflowBuilder::AddUser(const std::string& uid,
                                           const std::string& gender,
                                           const std::string& role) {
  users_.push_back({uid, gender, role});
  return Status::OK();
}

void MovieReviewWorkflowBuilder::AddPlatform(const std::string& platform,
                                             const std::string& role,
                                             std::vector<RawReview> reviews,
                                             double min_reviews) {
  platforms_.push_back(
      Platform{platform, role, std::move(reviews), min_reviews});
}

Result<MovieReviewRun> MovieReviewWorkflowBuilder::Run(AggKind agg) {
  MovieReviewRun run;
  PROX_RETURN_NOT_OK(
      run.db.CreateTable("Users", {"UID", "Gender", "Role"}));
  PROX_RETURN_NOT_OK(
      run.db.CreateTable("Stats", {"UID", "NumRate", "MaxRate"}));
  PROX_RETURN_NOT_OK(run.db.CreateTable("Movies", {"Movie", "Agg"}));

  // Register users in both stores: the workflow's Users table (queried by
  // sanitizers) and the semantics EntityTable (consulted by constraints
  // and attribute valuations), with the annotation linked to its row.
  run.user_attributes = EntityTable("Users");
  AttrId gender_attr = run.user_attributes.AddAttribute("Gender");
  AttrId role_attr = run.user_attributes.AddAttribute("Role");
  (void)gender_attr;
  (void)role_attr;
  AnnotatedTable* users;
  PROX_ASSIGN_OR_RETURN(users, run.db.Table("Users"));
  DomainId user_domain = registry_->AddDomain("user");
  for (const auto& u : users_) {
    uint32_t row;
    PROX_ASSIGN_OR_RETURN(row, run.user_attributes.AddRow({u[1], u[2]}));
    std::string name = "U_" + u[0];
    AnnotationId ann;
    auto found = registry_->Find(name);
    if (found.ok()) {
      ann = found.value();
    } else {
      PROX_ASSIGN_OR_RETURN(ann, registry_->Add(user_domain, name, row));
    }
    PROX_RETURN_NOT_OK(users->Insert({u[0], u[1], u[2]}, ann));
  }

  Workflow workflow;
  std::vector<std::string> sanitized_edges;
  for (Platform& p : platforms_) {
    workflow.AddModule(std::make_unique<ReviewCollectorModule>(
        p.name, std::move(p.reviews)));
    workflow.AddModule(
        std::make_unique<SanitizingModule>(p.name, p.role, p.min_reviews));
    sanitized_edges.push_back(p.name + ".sanitized");
  }
  auto aggregator =
      std::make_unique<AggregatorModule>(sanitized_edges, agg);
  AggregatorModule* aggregator_ptr = aggregator.get();
  workflow.AddModule(std::move(aggregator));

  WorkflowContext ctx;
  ctx.db = &run.db;
  ctx.registry = registry_;
  PROX_RETURN_NOT_OK(workflow.Run(&ctx));
  run.provenance = aggregator_ptr->TakeProvenance();
  return run;
}

}  // namespace prox
