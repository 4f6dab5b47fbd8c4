#ifndef PROX_SERVICE_SUMMARIZATION_SERVICE_H_
#define PROX_SERVICE_SUMMARIZATION_SERVICE_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "datasets/dataset.h"
#include "summarize/summarizer.h"

namespace prox {

/// The knobs the summarization view exposes (Figure 7.4): weights, bounds,
/// step budget, aggregation, valuation class and VAL-FUNC.
struct SummarizationRequest {
  double w_dist = 0.5;
  double w_size = 0.5;
  double target_dist = 1.0;
  int64_t target_size = 1;
  int max_steps = 10;

  enum class ValuationClassKind {
    kDatasetDefault,
    kCancelSingleAnnotation,
    kCancelSingleAttribute,
  };
  ValuationClassKind valuation_class = ValuationClassKind::kDatasetDefault;

  enum class ValFuncKind {
    kDatasetDefault,
    kEuclidean,
    kAbsoluteDifference,
    kDisagreement,
  };
  ValFuncKind val_func = ValFuncKind::kDatasetDefault;

  /// Worker threads for the fold and materialize passes of step pricing
  /// (0 = process default, 1 = serial; SummarizerOptions::threads
  /// convention). Identical results at every setting.
  int threads = 1;

  /// Range checks on every knob: weights must be finite and >= 0 with a
  /// positive sum, target_size >= 1, max_steps >= 0, threads >= 0.
  /// InvalidArgument otherwise. SummarizationService::Summarize calls
  /// this before running Algorithm 1 (invalid knobs used to flow into the
  /// summarizer silently); prox::serve maps the failure to HTTP 400.
  Status Validate() const;
};

/// \brief The PROX summarization service: wires the dataset's semantics
/// (constraints, φ, valuation class, VAL-FUNC) and the request parameters
/// into Algorithm 1 and runs it on the selected provenance.
class SummarizationService {
 public:
  /// `dataset` is mutated (its registry accumulates summary annotations).
  explicit SummarizationService(Dataset* dataset) : dataset_(dataset) {}

  /// Summarizes `selected` (any expression over the dataset's annotations).
  /// Instrumented: counted in `prox_service_requests_total` /
  /// `prox_service_errors_total` (service="summarize"), timed by the
  /// "service.summarize" trace span and the
  /// `prox_service_summarize_duration_nanos` histogram.
  Result<SummaryOutcome> Summarize(const ProvenanceExpression& selected,
                                   const SummarizationRequest& request) const;

  /// Like Summarize, but warm-starts from `previous` (docs/INGEST.md):
  /// the previous outcome's merges are replayed into the new run's
  /// mapping state instead of re-searched, and the greedy continuation
  /// prices its candidates exactly as a cold run does. `previous` must be
  /// an outcome computed against this dataset and must outlive the call.
  Result<SummaryOutcome> Resummarize(const ProvenanceExpression& selected,
                                     const SummarizationRequest& request,
                                     const SummaryOutcome& previous) const;

 private:
  Result<SummaryOutcome> SummarizeImpl(
      const ProvenanceExpression& selected,
      const SummarizationRequest& request,
      const SummaryOutcome* warm_from) const;

  Dataset* dataset_;
};

}  // namespace prox

#endif  // PROX_SERVICE_SUMMARIZATION_SERVICE_H_
