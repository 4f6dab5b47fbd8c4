#ifndef PROX_PROVENANCE_ANNOTATION_H_
#define PROX_PROVENANCE_ANNOTATION_H_

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace prox {

/// Interned identifier of a provenance annotation (an element of Ann, or of
/// a summary domain Ann').
using AnnotationId = uint32_t;

/// Interned identifier of an annotation domain ("user", "movie_title", ...).
using DomainId = uint16_t;

/// Sentinel: "no annotation" (used e.g. for group-less tensor terms).
inline constexpr AnnotationId kNoAnnotation =
    std::numeric_limits<AnnotationId>::max();

/// Sentinel: annotation carries no entity-table row.
inline constexpr uint32_t kNoEntity = std::numeric_limits<uint32_t>::max();

/// \brief Interning table for provenance annotations.
///
/// Every basic unit of data manipulated by an application — a user, a movie
/// title, a DB tuple variable, a transition cost variable — is registered
/// once and referred to by a dense AnnotationId thereafter, so expressions
/// store integers, valuations materialize into flat bitmaps, and
/// homomorphisms are plain id arrays.
///
/// Annotations belong to *domains* (the "input tables" of Section 3.2's
/// semantic constraints — only same-domain annotations may be grouped).
/// Summary annotations created by the summarizer live in the same id space,
/// flagged via is_summary(), so a summarized expression can be evaluated and
/// re-summarized uniformly.
///
/// **Thread-safety contract.** The registry is *not* internally
/// synchronized. Registration (AddDomain / Add / AddSummary) must happen on
/// a single thread with no concurrent readers; every const accessor (name,
/// domain, size, Find, AnnotationsInDomain, ...) is safe to call from any
/// number of threads as long as no registration is in flight. The parallel
/// candidate-scoring path in Summarizer::Run relies on this: it
/// pre-registers one scratch summary annotation per domain *before* fanning
/// pricing out over the exec pool, so workers only ever read.
class AnnotationRegistry {
 public:
  AnnotationRegistry() = default;

  /// Pre-sizes the id vectors and name indexes for a known registration
  /// count (snapshot load registers everything up front), avoiding
  /// incremental rehashing.
  void Reserve(size_t num_domains, size_t num_annotations) {
    domain_names_.reserve(num_domains);
    domain_by_name_.reserve(num_domains);
    entries_.reserve(num_annotations);
    by_name_.reserve(num_annotations);
  }

  /// Registers a domain; returns the existing id if the name is known.
  DomainId AddDomain(const std::string& name);

  /// Looks up a domain by name.
  Result<DomainId> FindDomain(const std::string& name) const;

  const std::string& domain_name(DomainId d) const {
    return domain_names_[d];
  }
  size_t num_domains() const { return domain_names_.size(); }

  /// Registers an original annotation. Names must be unique registry-wide.
  /// \param entity_row optional row index in the domain's entity table,
  ///   used by the semantics layer to look up attributes.
  Result<AnnotationId> Add(DomainId domain, const std::string& name,
                           uint32_t entity_row = kNoEntity);

  /// Registers a summary annotation (an element of Ann'). Summary names may
  /// collide with nothing; if the requested name is taken a "#k" suffix is
  /// appended to keep names unique for display.
  AnnotationId AddSummary(DomainId domain, const std::string& name);

  /// Looks an annotation up by its unique name.
  Result<AnnotationId> Find(const std::string& name) const;

  const std::string& name(AnnotationId a) const { return entries_[a].name; }
  DomainId domain(AnnotationId a) const { return entries_[a].domain; }
  uint32_t entity_row(AnnotationId a) const { return entries_[a].entity_row; }
  bool is_summary(AnnotationId a) const { return entries_[a].is_summary; }

  /// Total number of registered annotations (originals + summaries).
  size_t size() const { return entries_.size(); }

  /// All annotation ids belonging to `domain`, in registration order.
  std::vector<AnnotationId> AnnotationsInDomain(DomainId domain) const;

 private:
  struct Entry {
    std::string name;
    DomainId domain;
    uint32_t entity_row;
    bool is_summary;
  };

  std::vector<Entry> entries_;
  std::vector<std::string> domain_names_;
  std::unordered_map<std::string, AnnotationId> by_name_;
  std::unordered_map<std::string, DomainId> domain_by_name_;
  /// AddSummary: requested name -> the next "#k" suffix to probe.
  std::unordered_map<std::string, int> next_suffix_;
};

}  // namespace prox

#endif  // PROX_PROVENANCE_ANNOTATION_H_
