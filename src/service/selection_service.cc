#include "service/selection_service.h"

#include <algorithm>

#include "common/str_util.h"
#include "ir/agg_expr.h"
#include "obs/trace.h"
#include "service/service_metrics.h"

namespace prox {

SelectionService::SelectionService(const Dataset* dataset,
                                   std::string group_domain)
    : dataset_(dataset),
      group_domain_(dataset->domain(group_domain)) {}

std::vector<std::string> SelectionService::ListTitles() const {
  std::vector<std::string> titles;
  for (AnnotationId a :
       dataset_->registry->AnnotationsInDomain(group_domain_)) {
    if (!dataset_->registry->is_summary(a)) {
      titles.push_back(dataset_->registry->name(a));
    }
  }
  std::sort(titles.begin(), titles.end());
  return titles;
}

std::vector<std::string> SelectionService::SearchTitles(
    const std::string& substring) const {
  std::string needle = ToLowerAscii(substring);
  std::vector<std::string> out;
  for (const std::string& title : ListTitles()) {
    if (ToLowerAscii(title).find(needle) != std::string::npos) {
      out.push_back(title);
    }
  }
  return out;
}

bool SelectionService::GroupMatches(AnnotationId group,
                                    const SelectionCriteria& c) const {
  const AnnotationRegistry& reg = *dataset_->registry;
  if (reg.domain(group) != group_domain_) return false;
  const std::string& title = reg.name(group);

  if (!c.titles.empty() &&
      std::find(c.titles.begin(), c.titles.end(), title) == c.titles.end()) {
    return false;
  }
  if (!c.title_substring.empty() &&
      ToLowerAscii(title).find(ToLowerAscii(c.title_substring)) ==
          std::string::npos) {
    return false;
  }
  if (!c.genres.empty() || c.year.has_value()) {
    const EntityTable* table = dataset_->ctx.TableFor(group_domain_);
    uint32_t row = reg.entity_row(group);
    if (table == nullptr || row == kNoEntity) return false;
    if (!c.genres.empty()) {
      auto genre_attr = table->FindAttribute("Genre");
      if (!genre_attr.ok()) return false;
      const std::string& genre = table->ValueNameOf(row, genre_attr.value());
      if (std::find(c.genres.begin(), c.genres.end(), genre) ==
          c.genres.end()) {
        return false;
      }
    }
    if (c.year.has_value()) {
      auto year_attr = table->FindAttribute("Year");
      if (!year_attr.ok()) return false;
      if (table->ValueNameOf(row, year_attr.value()) !=
          std::to_string(*c.year)) {
        return false;
      }
    }
  }
  return true;
}

Result<std::unique_ptr<ProvenanceExpression>> SelectionService::Select(
    const SelectionCriteria& criteria) const {
  static obs::Counter* requests = ServiceRequests("select");
  static obs::Histogram* duration =
      ServiceDuration("prox_service_select_duration_nanos");
  requests->Increment();
  obs::TraceSpan span("service.select");
  Result<std::unique_ptr<ProvenanceExpression>> result = SelectImpl(criteria);
  duration->Observe(static_cast<double>(span.Close()));
  if (!result.ok()) {
    ServiceErrors("select", result.status().code())->Increment();
  }
  return result;
}

Result<std::unique_ptr<ProvenanceExpression>> SelectionService::SelectImpl(
    const SelectionCriteria& criteria) const {
  const ir::IrAggregateExpression* agg = dataset_->provenance->AsAggregate();
  if (agg == nullptr) {
    return Status::FailedPrecondition(
        "selection requires an aggregate provenance expression");
  }
  for (const std::string& title : criteria.titles) {
    auto found = dataset_->registry->Find(title);
    if (!found.ok()) return found.status();
  }
  // The selection gets its own pool: only ingest interns into the
  // dataset's pool. Matching rows keep their canonical order, so the
  // sorted fast path applies.
  auto pool = std::make_shared<ir::TermPool>();
  auto selected = std::make_unique<ir::IrAggregateExpression>(agg->agg(), pool);
  const size_t num_terms = agg->num_terms();
  for (size_t i = 0; i < num_terms; ++i) {
    if (!GroupMatches(agg->group(i), criteria)) continue;
    const ir::IrAggregateExpression::InternedRow r =
        agg->InternRow(i, pool.get());
    selected->AddTermIds(r.mono, r.guard, r.group, r.value);
  }
  selected->CanonicalizeSorted();
  if (selected->num_terms() == 0) {
    return Status::NotFound("no provenance matches the selection criteria");
  }
  return std::unique_ptr<ProvenanceExpression>(std::move(selected));
}

}  // namespace prox
