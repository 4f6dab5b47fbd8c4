#ifndef PROX_ENGINE_CODEC_H_
#define PROX_ENGINE_CODEC_H_

#include <string>

#include "common/json.h"
#include "common/result.h"
#include "datasets/dataset.h"
#include "service/evaluator_service.h"
#include "service/selection_service.h"
#include "service/summarization_service.h"
#include "summarize/summarizer.h"

namespace prox {
namespace engine {

/// \file
/// The engine's canonical JSON codec: decoding of request bodies, encoding
/// of results, and the canonical strings the SummaryCache keys on. Every
/// transport — the HTTP router in prox::serve, `prox_cli --json`, and the
/// C ABI in prox_c.h — goes through these encoders, so they all emit the
/// same serialization of a SummaryOutcome (docs/SERVING.md gives the
/// schemas, docs/EMBEDDING.md the embedding contract).
///
/// Encodings are deterministic: field order is fixed, doubles render via
/// ShortestDouble, and nondeterministic fields (wall times, raw
/// AnnotationIds — both vary between reruns on the same registry) are
/// excluded from SummaryOutcomeToJson so that two runs of the same
/// request serialize to the same bytes.

// --- canonical cache-key fragments ---------------------------------------

/// A 64-bit FNV-1a fingerprint (hex) of the dataset identity: every
/// registered annotation/domain name plus the provenance expression text.
/// Computed once at server start; two servers over the same generated
/// dataset agree, any content difference disagrees.
std::string DatasetFingerprint(const Dataset& dataset);

/// The canonicalized selection: sorted de-duplicated titles/genres,
/// lower-cased substring. Criteria that differ only in list order or
/// substring case produce the same key. `SelectAll` is the literal "all".
std::string CanonicalSelectionKey(const SelectionCriteria& criteria);
std::string SelectAllKey();

/// Every knob of the request except `threads` (thread count does not
/// change results — the PR 2 determinism contract — so all thread
/// settings share cache entries), doubles in bit-exact hex.
std::string CanonicalRequestKey(const SummarizationRequest& request);

/// `fingerprint + "|" + selection_key + "|" + request_key`.
std::string SummaryCacheKey(const std::string& dataset_fingerprint,
                            const std::string& selection_key,
                            const SummarizationRequest& request);

// --- request decoding ------------------------------------------------------

/// `{"all": true}` or any of {"titles": [...], "title_substring": "...",
/// "genres": [...], "year": 1999}. Unknown fields are InvalidArgument.
/// `*select_all` is set when the body asked for the whole provenance.
Result<SelectionCriteria> SelectionCriteriaFromJson(const JsonValue& value,
                                                    bool* select_all);

/// All fields optional with SummarizationRequest's defaults: w_dist,
/// w_size, target_dist, target_size, max_steps, threads, valuation_class
/// ("dataset_default" | "cancel_single_annotation" |
/// "cancel_single_attribute"), val_func ("dataset_default" | "euclidean" |
/// "absolute_difference" | "disagreement"). Unknown fields or wrong types
/// are InvalidArgument (range checks live in
/// SummarizationRequest::Validate, not here).
Result<SummarizationRequest> SummarizationRequestFromJson(
    const JsonValue& value);

/// {"false_annotations": [...], "false_attributes": [{"attribute": "...",
/// "value": "..."}]} — both optional.
Result<Assignment> AssignmentFromJson(const JsonValue& value);

// --- response encoding -----------------------------------------------------

/// The canonical SummaryOutcome document (also `prox_cli --json`):
/// final_size, final_distance, rolled_back, equivalence_merges,
/// incremental_hits, incremental_fallbacks, steps[] (step, summary,
/// merged[], distance, size, score, num_candidates), groups[] (name,
/// members[]), expression. No timings, no ids (see file comment).
/// incremental_hits and incremental_fallbacks are retained only for
/// compatibility and are always 0; dropping them would change the wire
/// format.
JsonValue SummaryOutcomeToJson(const SummaryOutcome& outcome,
                               const AnnotationRegistry& registry);

/// {"rows": [{"group": "...", "value": ...}], "eval_nanos": ...}.
JsonValue EvaluationReportToJson(const EvaluationReport& report);

/// {"error": {"code": "...", "message": "..."}} plus the HTTP status the
/// Status maps to (InvalidArgument → 400, NotFound → 404,
/// FailedPrecondition → 409, anything else → 500).
JsonValue StatusToJson(const Status& status);
int HttpStatusForCode(StatusCode code);

}  // namespace engine
}  // namespace prox

#endif  // PROX_ENGINE_CODEC_H_
