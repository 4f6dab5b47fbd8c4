#ifndef PROX_TESTS_TESTING_PRICE_MERGES_H_
#define PROX_TESTS_TESTING_PRICE_MERGES_H_

#include <cstdint>
#include <vector>

#include "exec/thread_pool.h"
#include "provenance/expression.h"
#include "summarize/distance.h"
#include "summarize/mapping_state.h"

namespace prox {
namespace testing_fixtures {

/// Step pricing with every merge's distance folded: ShapeMerges, then
/// FoldMerges over every merge and CommitStep, or MaterializeMerges when
/// the expression or VAL-FUNC has no step pricing. What an unbounded
/// Summarizer::Run step asks of the oracle, for tests that compare every
/// candidate of a step. True when step pricing priced the merges, false
/// when they materialized.
inline bool PriceMerges(EnumeratedDistance* oracle,
                        const ProvenanceExpression& current,
                        const MappingState& state,
                        const std::vector<MergeQuery>& merges,
                        exec::ThreadPool* pool, PricingCache* cache,
                        std::vector<MergePrice>* out) {
  if (!oracle->ShapeMerges(current, state, merges, cache, out)) {
    oracle->MaterializeMerges(current, state, merges, pool, out);
    return false;
  }
  std::vector<uint32_t> all(merges.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);
  oracle->FoldMerges(all, pool, cache, out);
  oracle->CommitStep(cache);
  return true;
}

}  // namespace testing_fixtures
}  // namespace prox

#endif  // PROX_TESTS_TESTING_PRICE_MERGES_H_
