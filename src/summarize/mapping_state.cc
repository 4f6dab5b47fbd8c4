#include "summarize/mapping_state.h"

#include <algorithm>

namespace prox {

void MappingState::Merge(const std::vector<AnnotationId>& roots,
                         AnnotationId summary) {
  std::vector<AnnotationId> merged_members;
  for (AnnotationId root : roots) {
    auto it = members_.find(root);
    if (it != members_.end()) {
      merged_members.insert(merged_members.end(), it->second.begin(),
                            it->second.end());
      members_.erase(it);
    } else {
      merged_members.push_back(root);
    }
  }
  std::sort(merged_members.begin(), merged_members.end());
  for (AnnotationId original : merged_members) {
    hom_.Set(original, summary);
  }
  summaries_.emplace_back(summary, merged_members);
  members_.emplace(summary, std::move(merged_members));
  last_roots_.assign(roots.begin(), roots.end());
  std::sort(last_roots_.begin(), last_roots_.end());
  ++num_merges_;
}

void MappingState::Replay(
    const std::vector<std::pair<AnnotationId, std::vector<AnnotationId>>>&
        entries) {
  // Original annotation -> the summary currently absorbing it. A recorded
  // entry lists *original* members; the merge that created it was over the
  // roots live at that time, so members already absorbed by an earlier
  // entry must re-enter via their current root or Merge would leave stale
  // member sets behind.
  std::unordered_map<AnnotationId, AnnotationId> root_of;
  for (const auto& [summary, members] : entries) {
    std::vector<AnnotationId> roots;
    roots.reserve(members.size());
    for (AnnotationId member : members) {
      auto it = root_of.find(member);
      const AnnotationId root = it == root_of.end() ? member : it->second;
      if (std::find(roots.begin(), roots.end(), root) == roots.end()) {
        roots.push_back(root);
      }
    }
    Merge(roots, summary);
    for (AnnotationId member : members) root_of[member] = summary;
  }
}

std::span<const AnnotationId> MappingState::Members(
    const AnnotationId& root) const {
  auto it = members_.find(root);
  if (it != members_.end()) return it->second;
  return {&root, 1};
}

namespace {

/// Calls set(summary, φ(truth of members)) for each summary annotation —
/// the override pass shared by Transform, TransformFrom and TransformLane.
template <typename SetFn>
void ForEachPhiOverride(
    const std::unordered_map<AnnotationId, std::vector<AnnotationId>>&
        members_by_summary,
    const AnnotationRegistry& registry, const PhiConfig& phi_config,
    const Valuation& base, SetFn set) {
  for (const auto& [summary, members] : members_by_summary) {
    const PhiKind phi = phi_config.For(registry.domain(summary));
    bool value;
    if (phi == PhiKind::kOr) {
      value = false;
      for (AnnotationId m : members) {
        if (base.IsTrue(m)) {
          value = true;
          break;
        }
      }
    } else {  // kAnd
      value = true;
      for (AnnotationId m : members) {
        if (base.IsFalse(m)) {
          value = false;
          break;
        }
      }
    }
    set(summary, value);
  }
}

void ApplyPhiOverrides(
    const std::unordered_map<AnnotationId, std::vector<AnnotationId>>&
        members_by_summary,
    const AnnotationRegistry& registry, const PhiConfig& phi_config,
    const Valuation& base, size_t num_annotations,
    MaterializedValuation* out) {
  ForEachPhiOverride(members_by_summary, registry, phi_config, base,
                     [&](AnnotationId summary, bool value) {
                       if (summary < num_annotations) out->Set(summary, value);
                     });
}

}  // namespace

MaterializedValuation MappingState::Transform(const Valuation& base,
                                              size_t num_annotations) const {
  MaterializedValuation out(base, num_annotations);
  ApplyPhiOverrides(members_, *registry_, phi_, base, num_annotations, &out);
  return out;
}

MaterializedValuation MappingState::TransformFrom(
    const Valuation& base, const MaterializedValuation& base_mat,
    size_t num_annotations) const {
  MaterializedValuation out(base_mat, num_annotations);
  ApplyPhiOverrides(members_, *registry_, phi_, base, num_annotations, &out);
  return out;
}

void MappingState::TransformLane(const Valuation& base, size_t lane,
                                 kernels::ValuationBlock* out) const {
  out->FillLaneSparse(lane, base);
  ForEachPhiOverride(members_, *registry_, phi_, base,
                     [&](AnnotationId summary, bool value) {
                       if (summary < out->num_annotations()) {
                         out->Set(lane, summary, value);
                       }
                     });
}

}  // namespace prox
