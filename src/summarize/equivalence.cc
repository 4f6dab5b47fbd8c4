#include "summarize/equivalence.h"

#include <algorithm>

namespace prox {

std::vector<std::vector<AnnotationId>> EquivalenceClasses(
    const std::vector<AnnotationId>& annotations,
    const std::vector<Valuation>& valuations,
    const AnnotationRegistry& registry) {
  // Initialize one class per domain, then refine by each valuation's
  // true/false split (the recursive construction in the proof of
  // Proposition 4.2.1). The classes are ranges of one flat array, in
  // order: a split partitions its range stably, true side first, so each
  // range stays sorted and the array lists the refined classes in the
  // order a class-by-class rebuild would.
  std::vector<std::pair<DomainId, AnnotationId>> keyed;
  keyed.reserve(annotations.size());
  for (AnnotationId a : annotations) keyed.emplace_back(registry.domain(a), a);
  std::sort(keyed.begin(), keyed.end());
  keyed.erase(std::unique(keyed.begin(), keyed.end()), keyed.end());
  const size_t n = keyed.size();
  std::vector<AnnotationId> flat(n);
  std::vector<uint32_t> ends;  // class i is [ends[i-1], ends[i])
  for (size_t i = 0; i < n; ++i) {
    flat[i] = keyed[i].second;
    if (i + 1 == n || keyed[i + 1].first != keyed[i].first) {
      ends.push_back(static_cast<uint32_t>(i + 1));
    }
  }

  std::vector<uint32_t> refined;
  std::vector<AnnotationId> falses;
  refined.reserve(n);
  falses.reserve(n);
  for (const Valuation& v : valuations) {
    refined.clear();
    uint32_t begin = 0;
    for (uint32_t end : ends) {
      uint32_t kept = begin;
      falses.clear();
      for (uint32_t i = begin; i < end; ++i) {
        if (v.IsTrue(flat[i])) {
          flat[kept++] = flat[i];
        } else {
          falses.push_back(flat[i]);
        }
      }
      std::copy(falses.begin(), falses.end(), flat.begin() + kept);
      if (kept != begin && kept != end) refined.push_back(kept);
      refined.push_back(end);
      begin = end;
    }
    ends.swap(refined);
  }

  // Classes sorted by their smallest (first) member.
  std::vector<uint32_t> order(ends.size());
  for (size_t c = 0; c < order.size(); ++c) order[c] = static_cast<uint32_t>(c);
  auto begin_of = [&](uint32_t c) { return c == 0 ? 0 : ends[c - 1]; };
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return flat[begin_of(a)] < flat[begin_of(b)];
  });
  std::vector<std::vector<AnnotationId>> classes;
  classes.reserve(order.size());
  for (uint32_t c : order) {
    classes.emplace_back(flat.begin() + begin_of(c), flat.begin() + ends[c]);
  }
  return classes;
}

}  // namespace prox
