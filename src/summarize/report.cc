#include "summarize/report.h"

#include <algorithm>

#include "common/str_util.h"
#include "ir/adopt.h"
#include "ir/agg_expr.h"

namespace prox {

std::vector<GroupReport> SummaryReporter::Groups(
    const SummaryOutcome& outcome) const {
  const AnnotationRegistry& registry = *ctx_->registry;

  // Annotations actually present in the final expression.
  std::vector<AnnotationId> present;
  outcome.summary->CollectAnnotations(&present);

  // Group aggregates under the all-true valuation, when available.
  std::map<AnnotationId, double> group_agg;
  if (const ir::IrAggregateExpression* agg = outcome.summary->AsAggregate()) {
    const size_t num_terms = agg->num_terms();
    for (size_t t = 0; t < num_terms; ++t) {
      const ir::AggTermView term = agg->term(t);
      for (size_t k = 0; k < term.mono_len; ++k) {
        const AnnotationId a = term.mono[k];
        if (registry.is_summary(a)) {
          // Contribution of tensors carrying this summary annotation.
          auto [it, inserted] = group_agg.emplace(a, term.value.value);
          if (!inserted) {
            it->second = FoldAggregate(agg->agg(), it->second,
                                       term.value, /*first=*/false);
          }
        }
      }
    }
  }

  std::vector<GroupReport> out;
  for (const auto& [summary, members] : outcome.state.summaries()) {
    if (!std::binary_search(present.begin(), present.end(), summary)) {
      continue;  // absorbed into a later group, or scratch
    }
    GroupReport report;
    report.summary = summary;
    report.name = registry.name(summary);

    const EntityTable* table = ctx_->TableFor(registry.domain(summary));
    for (AnnotationId member : members) {
      report.member_names.push_back(registry.name(member));
      if (table != nullptr) {
        uint32_t row = registry.entity_row(member);
        if (row == kNoEntity) continue;
        for (AttrId attr = 0; attr < table->num_attributes(); ++attr) {
          report.attribute_histogram[table->attribute_name(attr)]
                                    [table->ValueNameOf(row, attr)]++;
        }
      }
    }
    auto agg_it = group_agg.find(summary);
    if (agg_it != group_agg.end()) {
      report.aggregate = agg_it->second;
      report.has_aggregate = true;
    }
    out.push_back(std::move(report));
  }
  return out;
}

Result<std::unique_ptr<ProvenanceExpression>> ExpressionAtStep(
    const ProvenanceExpression& p0, const SummaryOutcome& outcome,
    int step) {
  // A rolled-back run's state excludes the undone merge, so the navigable
  // range comes from the state, not the step records.
  const int num_steps =
      static_cast<int>(outcome.state.summaries().size()) -
      outcome.equivalence_merges;
  if (step < 0 || step > num_steps) {
    return Status::OutOfRange("step " + std::to_string(step) +
                              " outside [0, " + std::to_string(num_steps) +
                              "]");
  }
  // The state's summaries are recorded in merge order: first the
  // equivalence-grouping merges, then one per greedy step. Rebuilding the
  // prefix homomorphism original-by-original (later merges overwrite
  // earlier images, since members are stored flattened to originals)
  // reproduces the cumulative h after `step` steps.
  const size_t prefix =
      static_cast<size_t>(outcome.equivalence_merges + step);
  Homomorphism h;
  size_t applied = 0;
  for (const auto& [summary, members] : outcome.state.summaries()) {
    if (applied >= prefix) break;
    for (AnnotationId member : members) h.Set(member, summary);
    ++applied;
  }
  // Apply on a per-call copy: interning must not grow p0's pool.
  return ir::Adopt(p0, std::make_shared<ir::TermPool>())->Apply(h);
}

std::vector<std::string> SummaryReporter::Trace(
    const SummaryOutcome& outcome) const {
  const AnnotationRegistry& registry = *ctx_->registry;
  std::vector<std::string> out;
  if (outcome.equivalence_merges > 0) {
    out.push_back("grouped " + std::to_string(outcome.equivalence_merges) +
                  " equivalence classes (distance 0)");
  }
  for (const StepRecord& step : outcome.steps) {
    std::string line = "step " + std::to_string(step.step) + ": {";
    for (size_t i = 0; i < step.merged_roots.size(); ++i) {
      if (i > 0) line += ", ";
      line += registry.name(step.merged_roots[i]);
    }
    line += "} -> " + step.summary_name + "  (dist " +
            FormatDouble(step.distance, 4) + ", size " +
            std::to_string(step.size) + ")";
    out.push_back(std::move(line));
  }
  if (outcome.rolled_back) {
    out.push_back("final step overshot TARGET-DIST; rolled back");
  }
  return out;
}

}  // namespace prox
