#include "ingest/delta.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "ingest/ingest_metrics.h"
#include "ir/agg_expr.h"
#include "ir/ddp_expr.h"
#include "ir/term_pool.h"
#include "obs/trace.h"
#include "semantics/entity_table.h"

namespace prox {
namespace ingest {

namespace {

// FNV-1a, same constants as the serve-layer dataset fingerprint; the two
// layers must agree so chained fingerprints are reproducible across
// replicas (docs/INGEST.md).
constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvBytes(uint64_t h, const std::string& bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= kFnvPrime;
  }
  // Separator so concatenated fields cannot alias.
  h ^= 0xFFu;
  h *= kFnvPrime;
  return h;
}

std::string FnvHex(uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

const char* OpKindName(DeltaOpKind kind) {
  switch (kind) {
    case DeltaOpKind::kAddAnnotation:
      return "add_annotation";
    case DeltaOpKind::kAddTerm:
      return "add_term";
    case DeltaOpKind::kAddExecution:
      return "add_execution";
  }
  return "?";
}

Result<std::vector<std::string>> ParseStringArray(const JsonValue& value,
                                                  const char* what) {
  if (!value.is_array()) {
    return Status::InvalidArgument(std::string(what) + " must be an array");
  }
  std::vector<std::string> out;
  out.reserve(value.items().size());
  for (const JsonValue& item : value.items()) {
    if (!item.is_string()) {
      return Status::InvalidArgument(std::string(what) +
                                     " entries must be strings");
    }
    out.push_back(item.string_value());
  }
  return out;
}

Result<DeltaTransition> TransitionFromJson(const JsonValue& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("transition must be an object");
  }
  DeltaTransition t;
  const JsonValue* cost = value.Find("cost");
  const JsonValue* db = value.Find("db");
  if ((cost != nullptr) == (db != nullptr)) {
    return Status::InvalidArgument(
        "transition must have exactly one of \"cost\" (user step) or "
        "\"db\" (db step)");
  }
  if (cost != nullptr) {
    if (!cost->is_string()) {
      return Status::InvalidArgument("transition \"cost\" must be a string");
    }
    t.user = true;
    t.cost_var = cost->string_value();
  } else {
    PROX_ASSIGN_OR_RETURN(t.db_factors,
                          ParseStringArray(*db, "transition \"db\""));
    t.user = false;
    if (const JsonValue* nz = value.Find("nonzero"); nz != nullptr) {
      if (!nz->is_bool()) {
        return Status::InvalidArgument(
            "transition \"nonzero\" must be a bool");
      }
      t.nonzero = nz->bool_value();
    }
  }
  return t;
}

Result<DeltaOp> OpFromJson(const JsonValue& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("op must be an object");
  }
  const JsonValue* op_name = value.Find("op");
  if (op_name == nullptr || !op_name->is_string()) {
    return Status::InvalidArgument("op requires a string \"op\" kind");
  }
  DeltaOp op;
  const std::string& kind = op_name->string_value();
  if (kind == "add_annotation") {
    op.kind = DeltaOpKind::kAddAnnotation;
    const JsonValue* domain = value.Find("domain");
    const JsonValue* name = value.Find("name");
    if (domain == nullptr || !domain->is_string() || name == nullptr ||
        !name->is_string()) {
      return Status::InvalidArgument(
          "add_annotation requires string \"domain\" and \"name\"");
    }
    op.domain = domain->string_value();
    op.name = name->string_value();
    if (const JsonValue* attrs = value.Find("attrs"); attrs != nullptr) {
      PROX_ASSIGN_OR_RETURN(op.attrs, ParseStringArray(*attrs, "\"attrs\""));
    }
    if (const JsonValue* cost = value.Find("cost"); cost != nullptr) {
      if (!cost->is_number()) {
        return Status::InvalidArgument("\"cost\" must be a number");
      }
      op.cost = cost->double_value();
      op.has_cost = true;
    }
  } else if (kind == "add_term") {
    op.kind = DeltaOpKind::kAddTerm;
    const JsonValue* factors = value.Find("factors");
    if (factors == nullptr) {
      return Status::InvalidArgument("add_term requires \"factors\"");
    }
    PROX_ASSIGN_OR_RETURN(op.factors,
                          ParseStringArray(*factors, "\"factors\""));
    if (const JsonValue* group = value.Find("group"); group != nullptr) {
      if (!group->is_string()) {
        return Status::InvalidArgument("\"group\" must be a string");
      }
      op.group = group->string_value();
    }
    const JsonValue* term_value = value.Find("value");
    if (term_value == nullptr || !term_value->is_number()) {
      return Status::InvalidArgument("add_term requires a numeric \"value\"");
    }
    op.value = term_value->double_value();
    if (const JsonValue* count = value.Find("count"); count != nullptr) {
      if (!count->is_number()) {
        return Status::InvalidArgument("\"count\" must be a number");
      }
      op.count = count->double_value();
    }
  } else if (kind == "add_execution") {
    op.kind = DeltaOpKind::kAddExecution;
    const JsonValue* transitions = value.Find("transitions");
    if (transitions == nullptr || !transitions->is_array()) {
      return Status::InvalidArgument(
          "add_execution requires a \"transitions\" array");
    }
    op.transitions.reserve(transitions->items().size());
    for (const JsonValue& t : transitions->items()) {
      PROX_ASSIGN_OR_RETURN(DeltaTransition parsed, TransitionFromJson(t));
      op.transitions.push_back(std::move(parsed));
    }
  } else {
    return Status::InvalidArgument("unknown op kind \"" + kind + "\"");
  }
  return op;
}

JsonValue OpToJson(const DeltaOp& op) {
  JsonValue doc = JsonValue::Object();
  doc.Set("op", JsonValue::Str(OpKindName(op.kind)));
  switch (op.kind) {
    case DeltaOpKind::kAddAnnotation: {
      doc.Set("domain", JsonValue::Str(op.domain));
      doc.Set("name", JsonValue::Str(op.name));
      if (!op.attrs.empty()) {
        JsonValue attrs = JsonValue::Array();
        for (const std::string& a : op.attrs) attrs.Append(JsonValue::Str(a));
        doc.Set("attrs", std::move(attrs));
      }
      if (op.has_cost) doc.Set("cost", JsonValue::Double(op.cost));
      break;
    }
    case DeltaOpKind::kAddTerm: {
      JsonValue factors = JsonValue::Array();
      for (const std::string& f : op.factors) {
        factors.Append(JsonValue::Str(f));
      }
      doc.Set("factors", std::move(factors));
      if (!op.group.empty()) doc.Set("group", JsonValue::Str(op.group));
      doc.Set("value", JsonValue::Double(op.value));
      doc.Set("count", JsonValue::Double(op.count));
      break;
    }
    case DeltaOpKind::kAddExecution: {
      JsonValue transitions = JsonValue::Array();
      for (const DeltaTransition& t : op.transitions) {
        JsonValue tj = JsonValue::Object();
        if (t.user) {
          tj.Set("cost", JsonValue::Str(t.cost_var));
        } else {
          JsonValue db = JsonValue::Array();
          for (const std::string& f : t.db_factors) {
            db.Append(JsonValue::Str(f));
          }
          tj.Set("db", std::move(db));
          tj.Set("nonzero", JsonValue::Bool(t.nonzero));
        }
        transitions.Append(std::move(tj));
      }
      doc.Set("transitions", std::move(transitions));
      break;
    }
  }
  return doc;
}

/// Dry-run state while validating a batch: names the batch will register,
/// simulated before any mutation so application is all-or-nothing.
struct PendingNames {
  std::unordered_set<std::string> names;

  bool Contains(const std::string& name) const {
    return names.count(name) != 0;
  }
};

/// Resolves a factor/group/cost-var name against the registry plus the
/// batch's own pending additions.
Status CheckResolvable(const AnnotationRegistry& registry,
                       const PendingNames& pending, const std::string& name,
                       const char* what) {
  Result<AnnotationId> found = registry.Find(name);
  if (found.ok()) {
    if (registry.is_summary(found.value())) {
      return DeltaError(DeltaErrorKind::kSummaryAnnotation,
                        std::string(what) + " '" + name +
                            "' is a summary annotation; deltas may only "
                            "reference originals");
    }
    return Status::OK();
  }
  if (pending.Contains(name)) return Status::OK();
  return DeltaError(DeltaErrorKind::kUnknownAnnotation,
                    std::string(what) + " '" + name + "' is not registered");
}

Status ValidateBatch(const Dataset& dataset, const DeltaBatch& batch,
                     uint64_t expected_sequence) {
  if (batch.sequence != expected_sequence) {
    return DeltaError(DeltaErrorKind::kSequence,
                      "expected batch " + std::to_string(expected_sequence) +
                          ", got " + std::to_string(batch.sequence));
  }
  const AnnotationRegistry& registry = *dataset.registry;
  const ProvenanceExpression* provenance = dataset.provenance.get();
  const bool is_aggregate =
      provenance != nullptr && provenance->AsAggregate() != nullptr;
  const bool is_ddp = provenance != nullptr && provenance->AsDdp() != nullptr;

  PendingNames pending;
  for (size_t i = 0; i < batch.ops.size(); ++i) {
    const DeltaOp& op = batch.ops[i];
    const std::string at = "op " + std::to_string(i) + ": ";
    switch (op.kind) {
      case DeltaOpKind::kAddAnnotation: {
        if (op.name.empty()) {
          return DeltaError(DeltaErrorKind::kBadShape,
                            at + "annotation name must be non-empty");
        }
        Result<DomainId> domain = registry.FindDomain(op.domain);
        if (!domain.ok()) {
          return DeltaError(DeltaErrorKind::kUnknownDomain,
                            at + "no such domain '" + op.domain + "'");
        }
        if (registry.Find(op.name).ok() || pending.Contains(op.name)) {
          return DeltaError(DeltaErrorKind::kDuplicateAnnotation,
                            at + "annotation '" + op.name +
                                "' already registered");
        }
        auto table = dataset.ctx.tables.find(domain.value());
        const size_t want = table != dataset.ctx.tables.end()
                                ? table->second.num_attributes()
                                : 0;
        if (op.attrs.size() != want && !op.attrs.empty()) {
          return DeltaError(DeltaErrorKind::kBadShape,
                            at + "domain '" + op.domain + "' expects " +
                                std::to_string(want) + " attrs, got " +
                                std::to_string(op.attrs.size()));
        }
        if (op.has_cost && !is_ddp) {
          return DeltaError(DeltaErrorKind::kUnsupported,
                            at + "\"cost\" requires a DDP dataset");
        }
        if (!std::isfinite(op.cost)) {
          return DeltaError(DeltaErrorKind::kBadShape,
                            at + "cost must be finite");
        }
        pending.names.insert(op.name);
        break;
      }
      case DeltaOpKind::kAddTerm: {
        if (!is_aggregate) {
          return DeltaError(
              DeltaErrorKind::kUnsupported,
              at + "add_term requires an aggregate provenance expression");
        }
        if (op.factors.empty()) {
          return DeltaError(DeltaErrorKind::kBadShape,
                            at + "term factors must be non-empty");
        }
        for (const std::string& f : op.factors) {
          Status factor_ok = CheckResolvable(registry, pending, f,
                                             "term factor");
          if (!factor_ok.ok()) return factor_ok;
        }
        if (!op.group.empty()) {
          Status group_ok = CheckResolvable(registry, pending, op.group,
                                            "term group");
          if (!group_ok.ok()) return group_ok;
        }
        if (!std::isfinite(op.value)) {
          return DeltaError(DeltaErrorKind::kBadShape,
                            at + "term value must be finite");
        }
        if (!(op.count > 0.0) || !std::isfinite(op.count)) {
          return DeltaError(DeltaErrorKind::kNonMonotone,
                            at + "term count must be > 0; shrinking or "
                                 "cancelling existing provenance is not a "
                                 "delta");
        }
        break;
      }
      case DeltaOpKind::kAddExecution: {
        if (!is_ddp) {
          return DeltaError(
              DeltaErrorKind::kUnsupported,
              at + "add_execution requires a DDP provenance expression");
        }
        if (op.transitions.empty()) {
          return DeltaError(DeltaErrorKind::kBadShape,
                            at + "execution must have transitions");
        }
        for (const DeltaTransition& t : op.transitions) {
          if (t.user) {
            Status cost_ok = CheckResolvable(registry, pending, t.cost_var,
                                             "cost var");
            if (!cost_ok.ok()) return cost_ok;
          } else {
            if (t.db_factors.empty()) {
              return DeltaError(DeltaErrorKind::kBadShape,
                                at + "db transition needs factors");
            }
            for (const std::string& f : t.db_factors) {
              Status db_ok = CheckResolvable(registry, pending, f,
                                             "db factor");
              if (!db_ok.ok()) return db_ok;
            }
          }
        }
        break;
      }
    }
  }
  return Status::OK();
}

Result<AnnotationId> ResolveId(const AnnotationRegistry& registry,
                               const std::string& name) {
  PROX_ASSIGN_OR_RETURN(AnnotationId id, registry.Find(name));
  return id;
}

Result<std::vector<AnnotationId>> ResolveIds(
    const AnnotationRegistry& registry,
    const std::vector<std::string>& names) {
  std::vector<AnnotationId> ids;
  ids.reserve(names.size());
  for (const std::string& n : names) {
    PROX_ASSIGN_OR_RETURN(AnnotationId id, registry.Find(n));
    ids.push_back(id);
  }
  return ids;
}

}  // namespace

const char* DeltaErrorKindToString(DeltaErrorKind kind) {
  switch (kind) {
    case DeltaErrorKind::kSequence:
      return "kSequence";
    case DeltaErrorKind::kUnknownDomain:
      return "kUnknownDomain";
    case DeltaErrorKind::kDuplicateAnnotation:
      return "kDuplicateAnnotation";
    case DeltaErrorKind::kUnknownAnnotation:
      return "kUnknownAnnotation";
    case DeltaErrorKind::kSummaryAnnotation:
      return "kSummaryAnnotation";
    case DeltaErrorKind::kBadShape:
      return "kBadShape";
    case DeltaErrorKind::kNonMonotone:
      return "kNonMonotone";
    case DeltaErrorKind::kUnsupported:
      return "kUnsupported";
  }
  return "?";
}

Status DeltaError(DeltaErrorKind kind, const std::string& detail) {
  std::string message = std::string("ingest error ") +
                        DeltaErrorKindToString(kind) + ": " + detail;
  if (kind == DeltaErrorKind::kSequence) {
    return Status::FailedPrecondition(std::move(message));
  }
  return Status::InvalidArgument(std::move(message));
}

Result<DeltaBatch> DeltaBatchFromJson(const JsonValue& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("delta batch must be a JSON object");
  }
  DeltaBatch batch;
  bool saw_sequence = false;
  for (const auto& [key, member] : value.members()) {
    if (key == "sequence") {
      if (!member.is_int() || member.int_value() <= 0) {
        return Status::InvalidArgument(
            "\"sequence\" must be a positive integer");
      }
      batch.sequence = static_cast<uint64_t>(member.int_value());
      saw_sequence = true;
    } else if (key == "ops") {
      if (!member.is_array()) {
        return Status::InvalidArgument("\"ops\" must be an array");
      }
      batch.ops.reserve(member.items().size());
      for (const JsonValue& op : member.items()) {
        PROX_ASSIGN_OR_RETURN(DeltaOp parsed, OpFromJson(op));
        batch.ops.push_back(std::move(parsed));
      }
    } else if (key == "resummarize") {
      // A directive to the caller (router / CLI), not part of the batch.
    } else {
      return Status::InvalidArgument("unknown delta batch key \"" + key +
                                     "\"");
    }
  }
  if (!saw_sequence) {
    return Status::InvalidArgument("delta batch requires \"sequence\"");
  }
  if (batch.ops.empty()) {
    return Status::InvalidArgument("delta batch requires non-empty \"ops\"");
  }
  return batch;
}

JsonValue DeltaBatchToJson(const DeltaBatch& batch) {
  JsonValue doc = JsonValue::Object();
  doc.Set("sequence", JsonValue::Int(static_cast<int64_t>(batch.sequence)));
  JsonValue ops = JsonValue::Array();
  for (const DeltaOp& op : batch.ops) ops.Append(OpToJson(op));
  doc.Set("ops", std::move(ops));
  return doc;
}

JsonValue ApplyReceiptToJson(const ApplyReceipt& receipt) {
  JsonValue doc = JsonValue::Object();
  doc.Set("sequence", JsonValue::Int(static_cast<int64_t>(receipt.sequence)));
  doc.Set("annotations_added", JsonValue::Int(receipt.annotations_added));
  doc.Set("terms_added", JsonValue::Int(receipt.terms_added));
  doc.Set("expression_size", JsonValue::Int(receipt.expression_size));
  doc.Set("digest", JsonValue::Str(receipt.digest));
  return doc;
}

std::string BatchDigest(const DeltaBatch& batch) {
  uint64_t h = kFnvOffset;
  h = FnvBytes(h, "delta1");
  h = FnvBytes(h, WriteJson(DeltaBatchToJson(batch)));
  return FnvHex(h);
}

std::string ChainFingerprint(const std::string& fingerprint,
                             const std::string& digest) {
  uint64_t h = kFnvOffset;
  h = FnvBytes(h, fingerprint);
  h = FnvBytes(h, digest);
  return FnvHex(h);
}

Result<ApplyReceipt> ApplyBatch(Dataset* dataset, const DeltaBatch& batch,
                                uint64_t expected_sequence) {
  obs::TraceSpan span("ingest.apply");
  Status valid = ValidateBatch(*dataset, batch, expected_sequence);
  if (!valid.ok()) {
    IngestRejected()->Increment();
    return valid;
  }

  AnnotationRegistry* registry = dataset->registry.get();
  ProvenanceExpression* provenance = dataset->provenance.get();
  auto* ir_agg = dynamic_cast<ir::IrAggregateExpression*>(provenance);
  auto* ir_ddp = dynamic_cast<ir::IrDdpExpression*>(provenance);
  if (ir_agg == nullptr && ir_ddp == nullptr) {
    IngestRejected()->Increment();
    return DeltaError(DeltaErrorKind::kUnsupported,
                      "dataset has no appendable provenance expression");
  }

  // Capacity pre-reservation: one rehash/regrow up front instead of a
  // storm of incremental ones on a large batch.
  int64_t new_annotations = 0;
  int64_t new_terms = 0;
  for (const DeltaOp& op : batch.ops) {
    switch (op.kind) {
      case DeltaOpKind::kAddAnnotation:
        ++new_annotations;
        break;
      case DeltaOpKind::kAddTerm:
      case DeltaOpKind::kAddExecution:
        ++new_terms;
        break;
    }
  }
  registry->Reserve(registry->num_domains(),
                    registry->size() + static_cast<size_t>(new_annotations));
  if (ir_agg != nullptr) {
    ir_agg->ReserveAdditionalTerms(static_cast<size_t>(new_terms));
  }

  // Validation passed: apply in op order. Growth only — existing registry
  // ids, entity rows and interned monomial ids are never reassigned.
  for (const DeltaOp& op : batch.ops) {
    switch (op.kind) {
      case DeltaOpKind::kAddAnnotation: {
        PROX_ASSIGN_OR_RETURN(DomainId domain,
                              registry->FindDomain(op.domain));
        uint32_t row = kNoEntity;
        if (!op.attrs.empty()) {
          auto table = dataset->ctx.tables.find(domain);
          if (table != dataset->ctx.tables.end()) {
            PROX_ASSIGN_OR_RETURN(row, table->second.AddRow(op.attrs));
          }
        }
        PROX_ASSIGN_OR_RETURN(AnnotationId id,
                              registry->Add(domain, op.name, row));
        if (op.has_cost && ir_ddp != nullptr) ir_ddp->SetCost(id, op.cost);
        break;
      }
      case DeltaOpKind::kAddTerm: {
        PROX_ASSIGN_OR_RETURN(std::vector<AnnotationId> ids,
                              ResolveIds(*registry, op.factors));
        AnnotationId group = kNoAnnotation;
        if (!op.group.empty()) {
          PROX_ASSIGN_OR_RETURN(group, ResolveId(*registry, op.group));
        }
        std::sort(ids.begin(), ids.end());
        ir::MonomialId mono =
            ir_agg->pool()->InternMonomial(ids.data(), ids.size());
        ir_agg->AddTermIds(mono, ir::kNoGuard, group,
                           AggValue{op.value, op.count});
        break;
      }
      case DeltaOpKind::kAddExecution: {
        ir_ddp->BeginExecution();
        for (const DeltaTransition& t : op.transitions) {
          if (t.user) {
            PROX_ASSIGN_OR_RETURN(AnnotationId cost_var,
                                  ResolveId(*registry, t.cost_var));
            ir_ddp->AddUserTransition(cost_var);
          } else {
            PROX_ASSIGN_OR_RETURN(std::vector<AnnotationId> ids,
                                  ResolveIds(*registry, t.db_factors));
            std::sort(ids.begin(), ids.end());
            ir::MonomialId mono =
                ir_ddp->pool()->InternMonomial(ids.data(), ids.size());
            ir_ddp->AddDbTransition(mono, t.nonzero);
          }
        }
        break;
      }
    }
  }

  // One canonicalization pass per batch, not per op.
  if (ir_agg != nullptr) ir_agg->Canonicalize();
  if (ir_ddp != nullptr) ir_ddp->Canonicalize();

  ApplyReceipt receipt;
  receipt.sequence = batch.sequence;
  receipt.annotations_added = new_annotations;
  receipt.terms_added = new_terms;
  receipt.expression_size = dataset->provenance->Size();
  receipt.digest = BatchDigest(batch);

  IngestBatches()->Increment();
  IngestOps()->Increment(static_cast<uint64_t>(batch.ops.size()));
  IngestAnnotationsAdded()->Increment(
      static_cast<uint64_t>(new_annotations));
  IngestTermsAdded()->Increment(static_cast<uint64_t>(new_terms));
  return receipt;
}

}  // namespace ingest
}  // namespace prox
