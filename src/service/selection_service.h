#ifndef PROX_SERVICE_SELECTION_SERVICE_H_
#define PROX_SERVICE_SELECTION_SERVICE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "datasets/dataset.h"

namespace prox {

/// What the selection view of the PROX UI lets the user specify: movies by
/// explicit title, by a title search string, or by genres and release year
/// (Figures 7.2 / 7.3).
struct SelectionCriteria {
  std::vector<std::string> titles;
  std::string title_substring;
  std::vector<std::string> genres;
  std::optional<int> year;
};

/// \brief The PROX selection service: restricts the dataset's provenance to
/// the terms whose group (movie) matches user-defined criteria, producing
/// the expression the summarization view displays as input (Figure 7.4).
class SelectionService {
 public:
  /// `dataset` must hold an aggregate provenance expression and a
  /// "movie"-like group domain named by `group_domain`.
  SelectionService(const Dataset* dataset,
                   std::string group_domain = "movie");

  /// All group (movie) titles, sorted.
  std::vector<std::string> ListTitles() const;

  /// Titles containing `substring` (case-insensitive), sorted — the search
  /// box of Figure 7.2.
  std::vector<std::string> SearchTitles(const std::string& substring) const;

  /// The sub-expression covering exactly the matching groups. Errors when
  /// the criteria match nothing or name unknown titles. Instrumented:
  /// counted in `prox_service_requests_total` /
  /// `prox_service_errors_total` (service="select"), timed by the
  /// "service.select" trace span and the
  /// `prox_service_select_duration_nanos` histogram.
  Result<std::unique_ptr<ProvenanceExpression>> Select(
      const SelectionCriteria& criteria) const;

 private:
  Result<std::unique_ptr<ProvenanceExpression>> SelectImpl(
      const SelectionCriteria& criteria) const;

  bool GroupMatches(AnnotationId group, const SelectionCriteria& c) const;

  const Dataset* dataset_;
  DomainId group_domain_;
};

}  // namespace prox

#endif  // PROX_SERVICE_SELECTION_SERVICE_H_
