#include "engine/engine.h"

#include <chrono>
#include <memory>
#include <utility>

#include "common/json.h"
#include "datasets/ddp.h"
#include "datasets/movielens.h"
#include "datasets/wikipedia.h"
#include "engine/codec.h"
#include "engine/engine_metrics.h"
#include "ingest/delta.h"
#include "provenance/io.h"
#include "store/codec.h"
#include "store/snapshot.h"
#include "summarize/report.h"

namespace prox {
namespace engine {

namespace {

/// Renders one complete response document: WriteJson + the trailing
/// newline every transport has always emitted.
std::string RenderBody(const JsonValue& doc) {
  std::string body = WriteJson(doc);
  body.push_back('\n');
  return body;
}

Engine::Response OkResponse(const JsonValue& doc) {
  Engine::Response response;
  response.body = RenderBody(doc);
  return response;
}

Engine::Response ErrorResponse(const Status& status) {
  Engine::Response response;
  response.status = status;
  response.http_status = HttpStatusForCode(status.code());
  response.body = RenderBody(StatusToJson(status));
  return response;
}

JsonValue OutcomeDoc(const ProxSession::LockedView& view) {
  return SummaryOutcomeToJson(*view.outcome(), *view.dataset().registry);
}

/// The domain the selection view groups by — the same pick ProxSession's
/// own SelectionService makes at construction.
const std::string& GroupDomainName(const Dataset& dataset) {
  static const std::string kMovie = "movie";
  static const std::string kPage = "page";
  if (dataset.domains.count(kMovie)) return kMovie;
  if (dataset.domains.count(kPage)) return kPage;
  return dataset.domains.begin()->first;
}

Dataset GenerateFamily(const DatasetSpec& spec) {
  switch (spec.family) {
    case DatasetSpec::Family::kWikipedia: {
      WikipediaConfig config;
      config.num_users = spec.num_users > 0 ? spec.num_users : 10;
      config.num_pages = spec.num_groups > 0 ? spec.num_groups : 8;
      if (spec.seed_set) config.seed = spec.seed;
      return WikipediaGenerator::Generate(config);
    }
    case DatasetSpec::Family::kDdp: {
      DdpConfig config;
      if (spec.num_users > 0) config.num_executions = spec.num_users;
      if (spec.seed_set) config.seed = spec.seed;
      return DdpGenerator::Generate(config);
    }
    case DatasetSpec::Family::kMovieLens:
      break;
  }
  // The shape prox_cli and prox_server have always generated by default.
  MovieLensConfig config;
  config.num_users = spec.num_users > 0 ? spec.num_users : 25;
  config.num_movies = spec.num_groups > 0 ? spec.num_groups : 8;
  config.seed = spec.seed_set ? spec.seed : 99;
  return MovieLensGenerator::Generate(config);
}

Result<DatasetSpec> DatasetSpecFromJson(const JsonValue& doc) {
  DatasetSpec spec;
  if (!doc.is_object()) {
    return Status::InvalidArgument("'dataset' must be a JSON object");
  }
  for (const auto& [key, value] : doc.members()) {
    if (key == "family") {
      if (!value.is_string()) {
        return Status::InvalidArgument("field 'family' must be a string");
      }
      const std::string& family = value.string_value();
      if (family == "movielens") {
        spec.family = DatasetSpec::Family::kMovieLens;
      } else if (family == "wikipedia") {
        spec.family = DatasetSpec::Family::kWikipedia;
      } else if (family == "ddp") {
        spec.family = DatasetSpec::Family::kDdp;
      } else {
        return Status::InvalidArgument(
            "field 'family' must be \"movielens\", \"wikipedia\" or "
            "\"ddp\"");
      }
    } else if (key == "users") {
      if (!value.is_int() || value.int_value() <= 0) {
        return Status::InvalidArgument(
            "field 'users' must be a positive integer");
      }
      spec.num_users = static_cast<int>(value.int_value());
    } else if (key == "groups") {
      if (!value.is_int() || value.int_value() <= 0) {
        return Status::InvalidArgument(
            "field 'groups' must be a positive integer");
      }
      spec.num_groups = static_cast<int>(value.int_value());
    } else if (key == "seed") {
      if (!value.is_int() || value.int_value() < 0) {
        return Status::InvalidArgument(
            "field 'seed' must be a non-negative integer");
      }
      spec.seed = static_cast<uint64_t>(value.int_value());
      spec.seed_set = true;
    } else if (key == "snapshot") {
      if (!value.is_string()) {
        return Status::InvalidArgument("field 'snapshot' must be a string");
      }
      spec.snapshot_path = value.string_value();
    } else {
      return Status::InvalidArgument("unknown dataset field '" + key + "'");
    }
  }
  return spec;
}

}  // namespace

Engine::Engine(Dataset dataset, const Options& options)
    : session_(std::move(dataset)),
      cache_(options.cache),
      serving_key_(std::make_shared<const ServingKey>(
          ServingKey{session_.fingerprint(), SelectAllKey()})),
      maintainer_(&session_) {
  // The session starts with the whole provenance selected, so a summarize
  // with no prior select is well-defined (and cacheable under "all").
  session_.SelectAll();
}

Result<std::unique_ptr<Engine>> Engine::Create(const Options& options) {
  const DatasetSpec& spec = options.dataset;
  Dataset dataset;
  std::shared_ptr<store::Snapshot> snapshot;
  if (!spec.snapshot_path.empty()) {
    if (store::Status s = store::Snapshot::Open(spec.snapshot_path, &snapshot);
        !s.ok()) {
      return Status::InvalidArgument(s.ToString());
    }
    if (store::Status s =
            store::LoadDataset(snapshot, store::LoadOptions{}, &dataset);
        !s.ok()) {
      return Status::InvalidArgument(s.ToString());
    }
  } else {
    dataset = GenerateFamily(spec);
  }

  std::unique_ptr<Engine> engine(new Engine(std::move(dataset), options));
  if (snapshot != nullptr && options.restore_cache &&
      store::HasCacheSection(*snapshot)) {
    if (store::Status s = store::RestoreCache(*snapshot, &engine->cache_);
        !s.ok()) {
      return Status::InvalidArgument(s.ToString());
    }
  }
  return engine;
}

std::unique_ptr<Engine> Engine::FromDataset(Dataset dataset) {
  return FromDataset(std::move(dataset), Options{});
}

std::unique_ptr<Engine> Engine::FromDataset(Dataset dataset,
                                            const Options& options) {
  return std::unique_ptr<Engine>(new Engine(std::move(dataset), options));
}

Result<Engine::Options> Engine::OptionsFromJson(
    const std::string& config_json) {
  Options options;
  if (config_json.empty()) return options;
  PROX_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(config_json));
  if (!doc.is_object()) {
    return Status::InvalidArgument("engine config must be a JSON object");
  }
  for (const auto& [key, value] : doc.members()) {
    if (key == "dataset") {
      PROX_ASSIGN_OR_RETURN(options.dataset, DatasetSpecFromJson(value));
    } else if (key == "cache_mb") {
      if (!value.is_int() || value.int_value() < 0) {
        return Status::InvalidArgument(
            "field 'cache_mb' must be a non-negative integer");
      }
      options.cache.max_bytes =
          static_cast<size_t>(value.int_value()) * 1024 * 1024;
    } else {
      return Status::InvalidArgument("unknown config field '" + key + "'");
    }
  }
  return options;
}

// --- JSON request/response API ---------------------------------------------

Engine::Response Engine::HandleSelect(const std::string& request_body) {
  Result<JsonValue> body = ParseJson(request_body);
  if (!body.ok()) return ErrorResponse(body.status());
  bool select_all = false;
  Result<SelectionCriteria> criteria =
      SelectionCriteriaFromJson(body.value(), &select_all);
  if (!criteria.ok()) return ErrorResponse(criteria.status());

  std::unique_lock<std::mutex> lock = LockEngine();
  int64_t selected_size = 0;
  std::string selection_key;
  if (select_all) {
    selected_size = session_.SelectAll();
    selection_key = SelectAllKey();
  } else {
    Result<int64_t> size = session_.Select(criteria.value());
    if (!size.ok()) return ErrorResponse(size.status());
    selected_size = size.value();
    selection_key = CanonicalSelectionKey(criteria.value());
  }
  Publish(serving_key()->fingerprint, selection_key);
  JsonValue doc = JsonValue::Object();
  doc.Set("selected_size", JsonValue::Int(selected_size));
  doc.Set("selection_key", JsonValue::Str(selection_key));
  return OkResponse(doc);
}

Engine::Response Engine::HandleSummarize(const std::string& request_body) {
  Result<JsonValue> body = ParseJson(request_body);
  if (!body.ok()) return ErrorResponse(body.status());
  Result<SummarizationRequest> parsed =
      SummarizationRequestFromJson(body.value());
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  const SummarizationRequest& summarize_request = parsed.value();
  if (Status valid = summarize_request.Validate(); !valid.ok()) {
    return ErrorResponse(valid);
  }

  // Fast path, without mu_: one copy of the published ServingKey. A key
  // published by a writer that has not returned yet is fine — the cache
  // key embeds both values, so the read can only yield a miss or a hit
  // on bytes that are correct for that (dataset version, selection).
  std::shared_ptr<const ServingKey> published = serving_key();
  std::string key = SummaryCacheKey(published->fingerprint,
                                    published->selection_key,
                                    summarize_request);
  if (std::shared_ptr<const std::string> cached = cache_.Get(key)) {
    Response response;
    response.body = *cached;
    response.cache = Response::CacheOutcome::kHit;
    return response;
  }

  // Cold path: compute under the engine mutex so (a) the key, re-read
  // here, matches the selection the run uses even if a select raced in
  // (writers publish under mu_), and (b) concurrent identical requests
  // run Algorithm 1 once — the double-check below turns the rest into
  // hits, which keeps their bodies byte-identical (reruns on the same
  // registry would mint "#k"-suffixed summary names).
  std::unique_lock<std::mutex> lock = LockEngine();
  published = serving_key();
  key = SummaryCacheKey(published->fingerprint, published->selection_key,
                        summarize_request);
  if (std::shared_ptr<const std::string> cached = cache_.Get(key)) {
    Response response;
    response.body = *cached;
    response.cache = Response::CacheOutcome::kHit;
    return response;
  }
  Result<int64_t> size = session_.Summarize(summarize_request);
  if (!size.ok()) return ErrorResponse(size.status());

  auto rendered = std::make_shared<std::string>(RenderOutcomeBody());
  cache_.Put(key, rendered);

  Response response;
  response.body = *rendered;
  response.cache = Response::CacheOutcome::kMiss;
  return response;
}

Engine::Response Engine::HandleIngest(const std::string& request_body) {
  Result<JsonValue> body = ParseJson(request_body);
  if (!body.ok()) return ErrorResponse(body.status());
  Result<ingest::DeltaBatch> batch = ingest::DeltaBatchFromJson(body.value());
  if (!batch.ok()) return ErrorResponse(batch.status());

  // The optional "resummarize" directive: `true` re-summarizes with
  // default knobs, an object carries the same knobs as /v1/summarize.
  bool resummarize = false;
  SummarizationRequest summarize_request;
  if (const JsonValue* directive = body.value().Find("resummarize")) {
    if (directive->is_bool()) {
      resummarize = directive->bool_value();
    } else if (directive->is_object()) {
      resummarize = true;
      Result<SummarizationRequest> parsed =
          SummarizationRequestFromJson(*directive);
      if (!parsed.ok()) return ErrorResponse(parsed.status());
      summarize_request = parsed.value();
    } else {
      return ErrorResponse(Status::InvalidArgument(
          "field 'resummarize' must be a bool or an object"));
    }
    if (Status valid = summarize_request.Validate(); !valid.ok()) {
      return ErrorResponse(valid);
    }
  }

  // Single-flight with cold summarizes: the whole apply (and the optional
  // re-summarize) runs under the engine mutex. A concurrent cached read
  // keys against whichever ServingKey it copies — the pre-ingest one (its
  // cached bytes stay correct for that dataset version) or the new one.
  std::unique_lock<std::mutex> lock = LockEngine();
  Result<ingest::ApplyReceipt> receipt = maintainer_.Ingest(batch.value());
  if (!receipt.ok()) return ErrorResponse(receipt.status());
  // Chaining the fingerprint retires every cache entry keyed under the
  // old dataset version without touching the cache itself. Published
  // now, before the re-summarize: its error path returns early, after
  // the batch has already been applied.
  std::shared_ptr<const ServingKey> published =
      Publish(session_.fingerprint(), SelectAllKey());

  JsonValue doc = ingest::ApplyReceiptToJson(receipt.value());
  doc.Set("fingerprint", JsonValue::Str(published->fingerprint));

  if (resummarize) {
    Result<ingest::MaintainReport> maintained =
        maintainer_.Resummarize(summarize_request);
    if (!maintained.ok()) return ErrorResponse(maintained.status());
    const ingest::MaintainReport& report = maintained.value();

    // Publish the fresh summary under the post-ingest key so the next
    // summarize with the same knobs is a hit on these exact bytes.
    auto rendered = std::make_shared<std::string>(RenderOutcomeBody());
    cache_.Put(SummaryCacheKey(published->fingerprint,
                               published->selection_key, summarize_request),
               rendered);

    JsonValue summary = JsonValue::Object();
    summary.Set("warm", JsonValue::Bool(report.warm));
    summary.Set("delta_fraction", JsonValue::Double(report.delta_fraction));
    summary.Set("replayed_merges", JsonValue::Int(report.replayed_merges));
    summary.Set("continuation_steps",
                JsonValue::Int(report.continuation_steps));
    summary.Set("final_size", JsonValue::Int(report.final_size));
    summary.Set("final_distance", JsonValue::Double(report.final_distance));
    doc.Set("resummarize", std::move(summary));
  }
  return OkResponse(doc);
}

Engine::Response Engine::HandleGroups() {
  std::unique_lock<std::mutex> lock = LockEngine();
  JsonValue outcome_doc;
  {
    ProxSession::LockedView view = session_.Lock();
    if (view.outcome() == nullptr) {
      return ErrorResponse(
          Status::FailedPrecondition("no summary computed yet"));
    }
    outcome_doc = OutcomeDoc(view);
  }
  JsonValue doc = JsonValue::Object();
  const JsonValue* groups = outcome_doc.Find("groups");
  const JsonValue* expression = outcome_doc.Find("expression");
  doc.Set("groups", groups != nullptr ? *groups : JsonValue::Array());
  doc.Set("expression",
          expression != nullptr ? *expression : JsonValue::Null());
  return OkResponse(doc);
}

Engine::Response Engine::HandleEvaluate(const std::string& request_body) {
  Result<JsonValue> body = ParseJson(request_body);
  if (!body.ok()) return ErrorResponse(body.status());
  if (!body.value().is_object()) {
    return ErrorResponse(
        Status::InvalidArgument("evaluate body must be a JSON object"));
  }

  bool on_summary = true;
  const JsonValue* on = body.value().Find("on");
  if (on != nullptr) {
    if (!on->is_string() || (on->string_value() != "summary" &&
                             on->string_value() != "selection")) {
      return ErrorResponse(Status::InvalidArgument(
          "field 'on' must be \"summary\" or \"selection\""));
    }
    on_summary = on->string_value() == "summary";
  }
  const JsonValue* assignment_doc = body.value().Find("assignment");
  if (assignment_doc == nullptr) {
    return ErrorResponse(
        Status::InvalidArgument("missing 'assignment' object"));
  }
  Result<Assignment> assignment = AssignmentFromJson(*assignment_doc);
  if (!assignment.ok()) return ErrorResponse(assignment.status());

  std::unique_lock<std::mutex> lock = LockEngine();
  Result<EvaluationReport> report =
      on_summary ? session_.EvaluateOnSummary(assignment.value())
                 : session_.EvaluateOnSelection(assignment.value());
  if (!report.ok()) return ErrorResponse(report.status());
  return OkResponse(EvaluationReportToJson(report.value()));
}

// --- typed facade ----------------------------------------------------------

std::vector<std::string> Engine::ListTitles() const {
  std::unique_lock<std::mutex> lock = LockEngine();
  ProxSession::LockedView view = session_.Lock();
  SelectionService service(&view.dataset(), GroupDomainName(view.dataset()));
  return service.ListTitles();
}

std::vector<std::string> Engine::SearchTitles(
    const std::string& substring) const {
  std::unique_lock<std::mutex> lock = LockEngine();
  ProxSession::LockedView view = session_.Lock();
  SelectionService service(&view.dataset(), GroupDomainName(view.dataset()));
  return service.SearchTitles(substring);
}

Result<int64_t> Engine::Select(const SelectionCriteria& criteria) {
  std::unique_lock<std::mutex> lock = LockEngine();
  PROX_ASSIGN_OR_RETURN(int64_t size, session_.Select(criteria));
  Publish(serving_key()->fingerprint, CanonicalSelectionKey(criteria));
  return size;
}

int64_t Engine::SelectAll() {
  std::unique_lock<std::mutex> lock = LockEngine();
  const int64_t size = session_.SelectAll();
  Publish(serving_key()->fingerprint, SelectAllKey());
  return size;
}

Result<Engine::SummarizeOutcome> Engine::Summarize(
    const SummarizationRequest& request) {
  std::unique_lock<std::mutex> lock = LockEngine();
  PROX_ASSIGN_OR_RETURN(int64_t size, session_.Summarize(request));
  SummarizeOutcome outcome;
  outcome.final_size = size;
  {
    ProxSession::LockedView view = session_.Lock();
    outcome.final_distance = view.outcome()->final_distance;
    outcome.body = RenderBody(OutcomeDoc(view));
  }
  return outcome;
}

Result<ingest::ApplyReceipt> Engine::IngestDelta(
    const ingest::DeltaBatch& batch) {
  std::unique_lock<std::mutex> lock = LockEngine();
  PROX_ASSIGN_OR_RETURN(ingest::ApplyReceipt receipt,
                        maintainer_.Ingest(batch));
  Publish(session_.fingerprint(), SelectAllKey());
  return receipt;
}

Result<ingest::MaintainReport> Engine::Resummarize(
    const SummarizationRequest& request) {
  std::unique_lock<std::mutex> lock = LockEngine();
  return maintainer_.Resummarize(request);
}

std::vector<std::string> Engine::DescribeGroups() const {
  std::unique_lock<std::mutex> lock = LockEngine();
  return session_.DescribeGroups();
}

Result<std::string> Engine::SummaryExpression() const {
  std::unique_lock<std::mutex> lock = LockEngine();
  return session_.SummaryExpression();
}

Result<Engine::StepSnapshot> Engine::SummaryAtStep(int step) const {
  std::unique_lock<std::mutex> lock = LockEngine();
  ProxSession::LockedView view = session_.Lock();
  if (view.outcome() == nullptr || view.selection() == nullptr) {
    return Status::FailedPrecondition("no summary computed yet");
  }
  PROX_ASSIGN_OR_RETURN(
      std::unique_ptr<ProvenanceExpression> expression,
      ExpressionAtStep(*view.selection(), *view.outcome(), step));
  StepSnapshot snapshot;
  snapshot.size = expression->Size();
  snapshot.expression = expression->ToString(*view.dataset().registry);
  return snapshot;
}

Result<std::string> Engine::SerializedSummary() const {
  std::unique_lock<std::mutex> lock = LockEngine();
  ProxSession::LockedView view = session_.Lock();
  if (view.outcome() == nullptr) {
    return Status::FailedPrecondition("no summary computed yet");
  }
  return SerializeExpression(*view.outcome()->summary,
                             *view.dataset().registry);
}

Result<EvaluationReport> Engine::EvaluateOnSummary(
    const Assignment& assignment) {
  std::unique_lock<std::mutex> lock = LockEngine();
  return session_.EvaluateOnSummary(assignment);
}

Result<EvaluationReport> Engine::EvaluateOnSelection(
    const Assignment& assignment) {
  std::unique_lock<std::mutex> lock = LockEngine();
  return session_.EvaluateOnSelection(assignment);
}

// --- identity / persistence -------------------------------------------------

std::string Engine::fingerprint() const {
  return serving_key()->fingerprint;
}

int64_t Engine::provenance_size() const {
  std::unique_lock<std::mutex> lock = LockEngine();
  return session_.provenance_size();
}

uint64_t Engine::next_ingest_sequence() const {
  std::unique_lock<std::mutex> lock = LockEngine();
  return session_.next_ingest_sequence();
}

Status Engine::PersistSnapshot(const std::string& path) const {
  std::unique_lock<std::mutex> lock = LockEngine();
  store::SaveOptions save_options;
  save_options.fingerprint = serving_key()->fingerprint;
  save_options.cache = &cache_;
  ProxSession::LockedView view = session_.Lock();
  if (store::Status s = store::SaveDataset(view.dataset(), save_options, path);
      !s.ok()) {
    return Status::Internal(s.ToString());
  }
  return Status::OK();
}

std::unique_lock<std::mutex> Engine::LockEngine() const {
  static obs::Histogram* wait = EngineLockWait();
  const auto start = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mu_);
  wait->Observe(static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  return lock;
}

std::shared_ptr<const Engine::ServingKey> Engine::Publish(
    std::string fingerprint, std::string selection_key) {
  auto published = std::make_shared<const ServingKey>(
      ServingKey{std::move(fingerprint), std::move(selection_key)});
  std::lock_guard<std::mutex> lock(serving_key_mu_);
  serving_key_ = published;
  return published;
}

std::shared_ptr<const Engine::ServingKey> Engine::serving_key() const {
  std::lock_guard<std::mutex> lock(serving_key_mu_);
  return serving_key_;
}

std::string Engine::RenderOutcomeBody() const {
  ProxSession::LockedView view = session_.Lock();
  return RenderBody(OutcomeDoc(view));
}

}  // namespace engine
}  // namespace prox
