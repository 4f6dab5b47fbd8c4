#include "provenance/annotation.h"

namespace prox {

DomainId AnnotationRegistry::AddDomain(const std::string& name) {
  auto it = domain_by_name_.find(name);
  if (it != domain_by_name_.end()) return it->second;
  DomainId id = static_cast<DomainId>(domain_names_.size());
  domain_names_.push_back(name);
  domain_by_name_.emplace(name, id);
  return id;
}

Result<DomainId> AnnotationRegistry::FindDomain(const std::string& name) const {
  auto it = domain_by_name_.find(name);
  if (it == domain_by_name_.end()) {
    return Status::NotFound("unknown domain: " + name);
  }
  return it->second;
}

Result<AnnotationId> AnnotationRegistry::Add(DomainId domain,
                                             const std::string& name,
                                             uint32_t entity_row) {
  if (domain >= domain_names_.size()) {
    return Status::InvalidArgument("domain id out of range");
  }
  if (by_name_.count(name) > 0) {
    return Status::AlreadyExists("annotation already registered: " + name);
  }
  AnnotationId id = static_cast<AnnotationId>(entries_.size());
  entries_.push_back(Entry{name, domain, entity_row, /*is_summary=*/false});
  by_name_.emplace(name, id);
  return id;
}

AnnotationId AnnotationRegistry::AddSummary(DomainId domain,
                                            const std::string& name) {
  // Names are never removed, so every "name#k" below the remembered next
  // suffix is still taken: probing on from it yields the name a probe from
  // 2 would, without re-walking the taken ones on every call.
  std::string unique = name;
  if (by_name_.count(unique) > 0) {
    int& suffix = next_suffix_.try_emplace(name, 2).first->second;
    do {
      unique = name + "#" + std::to_string(suffix++);
    } while (by_name_.count(unique) > 0);
  }
  AnnotationId id = static_cast<AnnotationId>(entries_.size());
  entries_.push_back(Entry{unique, domain, kNoEntity, /*is_summary=*/true});
  by_name_.emplace(unique, id);
  return id;
}

Result<AnnotationId> AnnotationRegistry::Find(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("unknown annotation: " + name);
  }
  return it->second;
}

std::vector<AnnotationId> AnnotationRegistry::AnnotationsInDomain(
    DomainId domain) const {
  std::vector<AnnotationId> out;
  for (AnnotationId a = 0; a < entries_.size(); ++a) {
    if (entries_[a].domain == domain) out.push_back(a);
  }
  return out;
}

}  // namespace prox
