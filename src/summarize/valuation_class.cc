#include "summarize/valuation_class.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <map>

#include "common/rng.h"

namespace prox {

namespace {

bool DomainSelected(const std::vector<DomainId>& domains, DomainId d) {
  return domains.empty() ||
         std::find(domains.begin(), domains.end(), d) != domains.end();
}

}  // namespace

std::vector<Valuation> CancelSingleAnnotation::Generate(
    const ProvenanceExpression& p0, const SemanticContext& ctx) const {
  std::vector<AnnotationId> anns;
  p0.CollectAnnotations(&anns);
  std::vector<Valuation> out;
  for (AnnotationId a : anns) {
    if (!DomainSelected(domains_, ctx.registry->domain(a))) continue;
    std::vector<AnnotationId> cancelled = {a};
    if (taxonomy_consistent_ && ctx.taxonomy.has_value()) {
      ConceptId c = ctx.ConceptOf(a);
      if (c != kNoConcept) {
        // Cancel every p0 annotation denoting a concept below c as well:
        // the unique taxonomy-consistent completion.
        for (AnnotationId other : anns) {
          ConceptId oc = ctx.ConceptOf(other);
          if (oc != kNoConcept && other != a &&
              ctx.taxonomy->IsAncestor(c, oc)) {
            cancelled.push_back(other);
          }
        }
      }
    }
    out.emplace_back(std::move(cancelled),
                     "cancel " + ctx.registry->name(a));
  }
  return out;
}

std::vector<Valuation> CancelSingleAttribute::Generate(
    const ProvenanceExpression& p0, const SemanticContext& ctx) const {
  std::vector<AnnotationId> anns;
  p0.CollectAnnotations(&anns);
  // (domain, attr, value) -> annotations carrying it.
  std::map<std::tuple<DomainId, AttrId, ValueId>, std::vector<AnnotationId>>
      groups;
  for (AnnotationId a : anns) {
    DomainId d = ctx.registry->domain(a);
    if (!DomainSelected(domains_, d)) continue;
    const EntityTable* table = ctx.TableFor(d);
    if (table == nullptr) continue;
    uint32_t row = ctx.registry->entity_row(a);
    if (row == kNoEntity) continue;
    for (AttrId attr = 0; attr < table->num_attributes(); ++attr) {
      groups[{d, attr, table->ValueOf(row, attr)}].push_back(a);
    }
  }
  std::vector<Valuation> out;
  out.reserve(groups.size());
  for (auto& [key, members] : groups) {
    const auto& [d, attr, value] = key;
    const EntityTable* table = ctx.TableFor(d);
    const double weight = weighting_ == Weighting::kGroupSize
                              ? static_cast<double>(members.size())
                              : 1.0;
    out.emplace_back(std::move(members),
                     "cancel " + table->attribute_name(attr) + ":" +
                         table->value_name(value),
                     weight);
  }
  return out;
}

std::vector<Valuation> ExhaustiveValuations::Generate(
    const ProvenanceExpression& p0, const SemanticContext& ctx) const {
  (void)ctx;
  std::vector<AnnotationId> anns;
  p0.CollectAnnotations(&anns);
  if (anns.size() > max_annotations_) return {};
  std::vector<Valuation> out;
  const size_t n = anns.size();
  out.reserve(size_t{1} << n);
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    std::vector<AnnotationId> cancelled;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (uint64_t{1} << i)) cancelled.push_back(anns[i]);
    }
    out.emplace_back(std::move(cancelled), "mask " + std::to_string(mask));
  }
  return out;
}

Result<int> SampledValuations::RequiredSamples(double epsilon, double delta) {
  if (!(epsilon > 0.0 && epsilon <= 1.0)) {
    return Status::InvalidArgument("sampling epsilon must be in (0, 1]");
  }
  if (!(delta > 0.0 && delta < 1.0)) {
    return Status::InvalidArgument("sampling delta must be in (0, 1)");
  }
  const double n = std::ceil(std::log(2.0 / delta) / (2.0 * epsilon * epsilon));
  if (!(n <= static_cast<double>(INT_MAX))) {
    return Status::InvalidArgument(
        "sampling (epsilon, delta) needs more than INT_MAX samples");
  }
  return static_cast<int>(n);
}

Result<SampledValuations> SampledValuations::Create(Options options) {
  if (options.num_samples < 0) {
    return Status::InvalidArgument("num_samples must be non-negative");
  }
  if (options.num_samples > 0) {
    return SampledValuations(options.seed, options.num_samples);
  }
  PROX_ASSIGN_OR_RETURN(const int n,
                        RequiredSamples(options.epsilon, options.delta));
  return SampledValuations(options.seed, n);
}

std::vector<Valuation> SampledValuations::Generate(
    const ProvenanceExpression& p0, const SemanticContext& ctx) const {
  (void)ctx;
  std::vector<AnnotationId> anns;
  p0.CollectAnnotations(&anns);
  std::vector<Valuation> out;
  out.reserve(static_cast<size_t>(num_samples_));
  for (int s = 0; s < num_samples_; ++s) {
    Rng rng(seed_, static_cast<uint64_t>(s));
    std::vector<AnnotationId> cancelled;
    for (AnnotationId a : anns) {
      if (rng.Bernoulli(0.5)) cancelled.push_back(a);
    }
    out.emplace_back(std::move(cancelled));
  }
  return out;
}

std::vector<Valuation> CompositeValuationClass::Generate(
    const ProvenanceExpression& p0, const SemanticContext& ctx) const {
  std::vector<Valuation> out;
  for (const auto& inner : inner_) {
    auto part = inner->Generate(p0, ctx);
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  return out;
}

}  // namespace prox
