#include "service/summarization_service.h"

#include <cmath>

#include "obs/trace.h"
#include "service/service_metrics.h"
#include "summarize/distance.h"
#include "summarize/val_func.h"
#include "summarize/valuation_class.h"

namespace prox {

Status SummarizationRequest::Validate() const {
  if (!std::isfinite(w_dist) || w_dist < 0) {
    return Status::InvalidArgument("w_dist must be finite and >= 0");
  }
  if (!std::isfinite(w_size) || w_size < 0) {
    return Status::InvalidArgument("w_size must be finite and >= 0");
  }
  if (w_dist + w_size <= 0) {
    return Status::InvalidArgument("w_dist + w_size must be positive");
  }
  if (!std::isfinite(target_dist) || target_dist < 0) {
    return Status::InvalidArgument("target_dist must be finite and >= 0");
  }
  if (target_size < 1) {
    return Status::InvalidArgument("target_size must be >= 1");
  }
  if (max_steps < 0) {
    return Status::InvalidArgument("max_steps must be >= 0");
  }
  if (threads < 0) {
    return Status::InvalidArgument("threads must be >= 0");
  }
  return Status::OK();
}

Result<SummaryOutcome> SummarizationService::Summarize(
    const ProvenanceExpression& selected,
    const SummarizationRequest& request) const {
  static obs::Counter* requests = ServiceRequests("summarize");
  static obs::Histogram* duration =
      ServiceDuration("prox_service_summarize_duration_nanos");
  requests->Increment();
  obs::TraceSpan span("service.summarize");
  Result<SummaryOutcome> result = SummarizeImpl(selected, request, nullptr);
  duration->Observe(static_cast<double>(span.Close()));
  if (!result.ok()) {
    ServiceErrors("summarize", result.status().code())->Increment();
  }
  return result;
}

Result<SummaryOutcome> SummarizationService::Resummarize(
    const ProvenanceExpression& selected, const SummarizationRequest& request,
    const SummaryOutcome& previous) const {
  static obs::Counter* requests = ServiceRequests("resummarize");
  static obs::Histogram* duration =
      ServiceDuration("prox_service_summarize_duration_nanos");
  requests->Increment();
  obs::TraceSpan span("service.resummarize");
  Result<SummaryOutcome> result = SummarizeImpl(selected, request, &previous);
  duration->Observe(static_cast<double>(span.Close()));
  if (!result.ok()) {
    ServiceErrors("resummarize", result.status().code())->Increment();
  }
  return result;
}

Result<SummaryOutcome> SummarizationService::SummarizeImpl(
    const ProvenanceExpression& selected, const SummarizationRequest& request,
    const SummaryOutcome* warm_from) const {
  PROX_RETURN_NOT_OK(request.Validate());
  using VC = SummarizationRequest::ValuationClassKind;
  using VF = SummarizationRequest::ValFuncKind;

  std::unique_ptr<ValuationClass> owned_class;
  const ValuationClass* valuation_class = dataset_->valuation_class.get();
  switch (request.valuation_class) {
    case VC::kDatasetDefault:
      break;
    case VC::kCancelSingleAnnotation:
      owned_class = std::make_unique<CancelSingleAnnotation>();
      valuation_class = owned_class.get();
      break;
    case VC::kCancelSingleAttribute:
      owned_class = std::make_unique<CancelSingleAttribute>();
      valuation_class = owned_class.get();
      break;
  }
  if (valuation_class == nullptr) {
    return Status::FailedPrecondition("dataset provides no valuation class");
  }

  std::unique_ptr<ValFunc> owned_func;
  const ValFunc* val_func = dataset_->val_func.get();
  switch (request.val_func) {
    case VF::kDatasetDefault:
      break;
    case VF::kEuclidean:
      owned_func = std::make_unique<EuclideanValFunc>();
      val_func = owned_func.get();
      break;
    case VF::kAbsoluteDifference:
      owned_func = std::make_unique<AbsoluteDifferenceValFunc>();
      val_func = owned_func.get();
      break;
    case VF::kDisagreement:
      owned_func = std::make_unique<DisagreementValFunc>();
      val_func = owned_func.get();
      break;
  }
  if (val_func == nullptr) {
    return Status::FailedPrecondition("dataset provides no VAL-FUNC");
  }

  std::vector<Valuation> valuations =
      valuation_class->Generate(selected, dataset_->ctx);
  EnumeratedDistance oracle(&selected, dataset_->registry.get(), val_func,
                            valuations);

  SummarizerOptions options;
  options.w_dist = request.w_dist;
  options.w_size = request.w_size;
  options.target_dist = request.target_dist;
  options.target_size = request.target_size;
  options.max_steps = request.max_steps;
  options.phi = dataset_->phi;
  options.threads = request.threads;
  if (warm_from != nullptr) {
    options.warm_seed = &warm_from->state.summaries();
  }

  Summarizer summarizer(&selected, dataset_->registry.get(), &dataset_->ctx,
                        &dataset_->constraints, &oracle, &valuations, options);
  return summarizer.Run();
}

}  // namespace prox
