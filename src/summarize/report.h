#ifndef PROX_SUMMARIZE_REPORT_H_
#define PROX_SUMMARIZE_REPORT_H_

#include <map>
#include <string>
#include <vector>

#include "semantics/context.h"
#include "summarize/summarizer.h"

namespace prox {

/// \brief Structured rendering of a summarization outcome — the data
/// behind the PROX summary view's groups subview (Figures 7.5-7.7): each
/// summary group with its members, the distribution of every attribute
/// among the members, and the group's aggregated contribution.
struct GroupReport {
  AnnotationId summary = kNoAnnotation;
  std::string name;
  std::vector<std::string> member_names;
  /// attribute name -> (value -> member count), e.g.
  /// "Gender" -> {"F": 12, "M": 4} (Figure 7.6's per-group breakdown).
  std::map<std::string, std::map<std::string, int>> attribute_histogram;
  /// Aggregated value contributed by the group's tensors under the
  /// all-true valuation ("AGG:5" in Figure 7.5), when the summary
  /// expression is an aggregate; 0 otherwise.
  double aggregate = 0.0;
  bool has_aggregate = false;
};

/// \brief Builds the groups view of a summary outcome.
class SummaryReporter {
 public:
  SummaryReporter(const SemanticContext* ctx) : ctx_(ctx) {}

  /// One report per summary annotation still present in the outcome's
  /// final expression (intermediate absorbed groups and scratch
  /// annotations are skipped), in creation order.
  std::vector<GroupReport> Groups(const SummaryOutcome& outcome) const;

  /// Step-by-step textual trace ("observe the algorithm in action", the
  /// arrows of Figure 7.5): one line per step with the merged names and
  /// resulting distance/size.
  std::vector<std::string> Trace(const SummaryOutcome& outcome) const;

 private:
  const SemanticContext* ctx_;
};

/// Reconstructs the intermediate expression after `step` greedy steps of a
/// finished run — the summary view's left/right-arrow navigation. Step 0
/// is the state after the equivalence grouping; `outcome.steps.size()` is
/// the final expression. Out-of-range steps are an error. Works on a
/// per-call pool, so `p0`'s TermPool is left unchanged.
Result<std::unique_ptr<ProvenanceExpression>> ExpressionAtStep(
    const ProvenanceExpression& p0, const SummaryOutcome& outcome, int step);

}  // namespace prox

#endif  // PROX_SUMMARIZE_REPORT_H_
