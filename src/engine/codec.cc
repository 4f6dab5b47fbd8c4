#include "engine/codec.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <set>

#include "common/str_util.h"

#include "service/fingerprint.h"

namespace prox {
namespace engine {

namespace {

std::string HexDouble(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", value);
  return buf;
}

/// Sorted, de-duplicated copy for order-insensitive canonical keys.
JsonValue SortedUniqueArray(std::vector<std::string> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  JsonValue array = JsonValue::Array();
  for (std::string& value : values) array.Append(JsonValue::Str(std::move(value)));
  return array;
}

Result<std::vector<std::string>> StringList(const JsonValue& value,
                                            const std::string& field) {
  if (!value.is_array()) {
    return Status::InvalidArgument("field '" + field +
                                   "' must be an array of strings");
  }
  std::vector<std::string> out;
  for (const JsonValue& item : value.items()) {
    if (!item.is_string()) {
      return Status::InvalidArgument("field '" + field +
                                     "' must be an array of strings");
    }
    out.push_back(item.string_value());
  }
  return out;
}

Result<double> NumberField(const JsonValue& value, const std::string& field) {
  if (!value.is_number()) {
    return Status::InvalidArgument("field '" + field + "' must be a number");
  }
  return value.double_value();
}

Result<int64_t> IntField(const JsonValue& value, const std::string& field) {
  if (!value.is_int()) {
    return Status::InvalidArgument("field '" + field +
                                   "' must be an integer");
  }
  return value.int_value();
}

/// An integer field stored in an `int`: values outside its range are
/// rejected rather than narrowed (a narrowed value would alias another
/// request, cache key included).
Result<int> Int32Field(const JsonValue& value, const std::string& field) {
  PROX_ASSIGN_OR_RETURN(int64_t v, IntField(value, field));
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("field '" + field +
                                   "' is outside the 32-bit integer range");
  }
  return static_cast<int>(v);
}

}  // namespace

// ---------------------------------------------------------------------------
// Canonical cache-key fragments
// ---------------------------------------------------------------------------

std::string DatasetFingerprint(const Dataset& dataset) {
  // The hashing itself lives in the service layer (service/fingerprint.h)
  // so ProxSession can memoize it and the ingest subsystem can chain it
  // with per-batch delta digests; this wrapper keeps the serve-layer call
  // sites and tests stable.
  return ComputeDatasetFingerprint(dataset);
}

std::string CanonicalSelectionKey(const SelectionCriteria& criteria) {
  JsonValue doc = JsonValue::Object();
  doc.Set("titles", SortedUniqueArray(criteria.titles));
  doc.Set("substr", JsonValue::Str(ToLowerAscii(criteria.title_substring)));
  doc.Set("genres", SortedUniqueArray(criteria.genres));
  doc.Set("year", criteria.year.has_value() ? JsonValue::Int(*criteria.year)
                                            : JsonValue::Null());
  return WriteJson(doc);
}

std::string SelectAllKey() { return "all"; }

std::string CanonicalRequestKey(const SummarizationRequest& request) {
  std::string key = "wd=" + HexDouble(request.w_dist);
  key += ";ws=" + HexDouble(request.w_size);
  key += ";td=" + HexDouble(request.target_dist);
  key += ";ts=" + std::to_string(request.target_size);
  key += ";ms=" + std::to_string(request.max_steps);
  key += ";vc=" + std::to_string(static_cast<int>(request.valuation_class));
  key += ";vf=" + std::to_string(static_cast<int>(request.val_func));
  return key;
}

std::string SummaryCacheKey(const std::string& dataset_fingerprint,
                            const std::string& selection_key,
                            const SummarizationRequest& request) {
  return dataset_fingerprint + "|" + selection_key + "|" +
         CanonicalRequestKey(request);
}

// ---------------------------------------------------------------------------
// Request decoding
// ---------------------------------------------------------------------------

Result<SelectionCriteria> SelectionCriteriaFromJson(const JsonValue& value,
                                                    bool* select_all) {
  *select_all = false;
  if (!value.is_object()) {
    return Status::InvalidArgument("selection body must be a JSON object");
  }
  SelectionCriteria criteria;
  for (const auto& [key, member] : value.members()) {
    if (key == "all") {
      if (!member.is_bool()) {
        return Status::InvalidArgument("field 'all' must be a boolean");
      }
      *select_all = member.bool_value();
    } else if (key == "titles") {
      PROX_ASSIGN_OR_RETURN(criteria.titles, StringList(member, key));
    } else if (key == "title_substring") {
      if (!member.is_string()) {
        return Status::InvalidArgument(
            "field 'title_substring' must be a string");
      }
      criteria.title_substring = member.string_value();
    } else if (key == "genres") {
      PROX_ASSIGN_OR_RETURN(criteria.genres, StringList(member, key));
    } else if (key == "year") {
      PROX_ASSIGN_OR_RETURN(criteria.year, Int32Field(member, key));
    } else {
      return Status::InvalidArgument("unknown selection field '" + key + "'");
    }
  }
  return criteria;
}

Result<SummarizationRequest> SummarizationRequestFromJson(
    const JsonValue& value) {
  using VC = SummarizationRequest::ValuationClassKind;
  using VF = SummarizationRequest::ValFuncKind;
  if (!value.is_object()) {
    return Status::InvalidArgument("summarize body must be a JSON object");
  }
  SummarizationRequest request;
  for (const auto& [key, member] : value.members()) {
    if (key == "w_dist") {
      PROX_ASSIGN_OR_RETURN(request.w_dist, NumberField(member, key));
    } else if (key == "w_size") {
      PROX_ASSIGN_OR_RETURN(request.w_size, NumberField(member, key));
    } else if (key == "target_dist") {
      PROX_ASSIGN_OR_RETURN(request.target_dist, NumberField(member, key));
    } else if (key == "target_size") {
      PROX_ASSIGN_OR_RETURN(request.target_size, IntField(member, key));
    } else if (key == "max_steps") {
      PROX_ASSIGN_OR_RETURN(request.max_steps, Int32Field(member, key));
    } else if (key == "threads") {
      PROX_ASSIGN_OR_RETURN(request.threads, Int32Field(member, key));
    } else if (key == "valuation_class") {
      if (!member.is_string()) {
        return Status::InvalidArgument(
            "field 'valuation_class' must be a string");
      }
      const std::string& name = member.string_value();
      if (name == "dataset_default") {
        request.valuation_class = VC::kDatasetDefault;
      } else if (name == "cancel_single_annotation") {
        request.valuation_class = VC::kCancelSingleAnnotation;
      } else if (name == "cancel_single_attribute") {
        request.valuation_class = VC::kCancelSingleAttribute;
      } else {
        return Status::InvalidArgument("unknown valuation_class '" + name +
                                       "'");
      }
    } else if (key == "val_func") {
      if (!member.is_string()) {
        return Status::InvalidArgument("field 'val_func' must be a string");
      }
      const std::string& name = member.string_value();
      if (name == "dataset_default") {
        request.val_func = VF::kDatasetDefault;
      } else if (name == "euclidean") {
        request.val_func = VF::kEuclidean;
      } else if (name == "absolute_difference") {
        request.val_func = VF::kAbsoluteDifference;
      } else if (name == "disagreement") {
        request.val_func = VF::kDisagreement;
      } else {
        return Status::InvalidArgument("unknown val_func '" + name + "'");
      }
    } else {
      return Status::InvalidArgument("unknown summarize field '" + key + "'");
    }
  }
  return request;
}

Result<Assignment> AssignmentFromJson(const JsonValue& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("evaluate body must be a JSON object");
  }
  Assignment assignment;
  for (const auto& [key, member] : value.members()) {
    if (key == "false_annotations") {
      PROX_ASSIGN_OR_RETURN(assignment.false_annotations,
                            StringList(member, key));
    } else if (key == "false_attributes") {
      if (!member.is_array()) {
        return Status::InvalidArgument(
            "field 'false_attributes' must be an array");
      }
      for (const JsonValue& pair : member.items()) {
        const JsonValue* attribute =
            pair.is_object() ? pair.Find("attribute") : nullptr;
        const JsonValue* attr_value =
            pair.is_object() ? pair.Find("value") : nullptr;
        if (attribute == nullptr || !attribute->is_string() ||
            attr_value == nullptr || !attr_value->is_string()) {
          return Status::InvalidArgument(
              "false_attributes entries must be "
              "{\"attribute\": ..., \"value\": ...} string pairs");
        }
        assignment.false_attributes.emplace_back(attribute->string_value(),
                                                 attr_value->string_value());
      }
    } else {
      return Status::InvalidArgument("unknown evaluate field '" + key + "'");
    }
  }
  return assignment;
}

// ---------------------------------------------------------------------------
// Response encoding
// ---------------------------------------------------------------------------

JsonValue SummaryOutcomeToJson(const SummaryOutcome& outcome,
                               const AnnotationRegistry& registry) {
  JsonValue doc = JsonValue::Object();
  doc.Set("final_size", JsonValue::Int(outcome.final_size));
  doc.Set("final_distance", JsonValue::Double(outcome.final_distance));
  doc.Set("rolled_back", JsonValue::Bool(outcome.rolled_back));
  doc.Set("equivalence_merges", JsonValue::Int(outcome.equivalence_merges));
  // Retained for wire compatibility only; always 0 (see codec.h).
  doc.Set("incremental_hits", JsonValue::Int(0));
  doc.Set("incremental_fallbacks", JsonValue::Int(0));

  JsonValue steps = JsonValue::Array();
  for (const StepRecord& step : outcome.steps) {
    JsonValue entry = JsonValue::Object();
    entry.Set("step", JsonValue::Int(step.step));
    entry.Set("summary", JsonValue::Str(step.summary_name));
    JsonValue merged = JsonValue::Array();
    for (AnnotationId root : step.merged_roots) {
      merged.Append(JsonValue::Str(registry.name(root)));
    }
    entry.Set("merged", std::move(merged));
    entry.Set("distance", JsonValue::Double(step.distance));
    entry.Set("size", JsonValue::Int(step.size));
    entry.Set("score", JsonValue::Double(step.score));
    entry.Set("num_candidates", JsonValue::Int(step.num_candidates));
    steps.Append(std::move(entry));
  }
  doc.Set("steps", std::move(steps));

  JsonValue groups = JsonValue::Array();
  for (const auto& [summary, members] : outcome.state.summaries()) {
    const std::string& name = registry.name(summary);
    if (StartsWith(name, "~scratch")) continue;
    JsonValue group = JsonValue::Object();
    group.Set("name", JsonValue::Str(name));
    JsonValue member_names = JsonValue::Array();
    for (AnnotationId member : members) {
      member_names.Append(JsonValue::Str(registry.name(member)));
    }
    group.Set("members", std::move(member_names));
    groups.Append(std::move(group));
  }
  doc.Set("groups", std::move(groups));

  doc.Set("expression",
          outcome.summary != nullptr
              ? JsonValue::Str(outcome.summary->ToString(registry))
              : JsonValue::Null());
  return doc;
}

JsonValue EvaluationReportToJson(const EvaluationReport& report) {
  JsonValue doc = JsonValue::Object();
  JsonValue rows = JsonValue::Array();
  for (const auto& [group, value] : report.rows) {
    JsonValue row = JsonValue::Object();
    row.Set("group", JsonValue::Str(group));
    row.Set("value", JsonValue::Double(value));
    rows.Append(std::move(row));
  }
  doc.Set("rows", std::move(rows));
  doc.Set("eval_nanos", JsonValue::Int(report.eval_nanos));
  return doc;
}

JsonValue StatusToJson(const Status& status) {
  JsonValue error = JsonValue::Object();
  error.Set("code", JsonValue::Str(StatusCodeToString(status.code())));
  error.Set("message", JsonValue::Str(status.message()));
  JsonValue doc = JsonValue::Object();
  doc.Set("error", std::move(error));
  return doc;
}

int HttpStatusForCode(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return 200;
    case StatusCode::kInvalidArgument: return 400;
    case StatusCode::kNotFound: return 404;
    case StatusCode::kFailedPrecondition: return 409;
    case StatusCode::kAlreadyExists: return 409;
    case StatusCode::kOutOfRange: return 400;
    case StatusCode::kUnimplemented: return 501;
    case StatusCode::kInternal: return 500;
  }
  return 500;
}

}  // namespace engine
}  // namespace prox
