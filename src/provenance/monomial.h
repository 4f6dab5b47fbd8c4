#ifndef PROX_PROVENANCE_MONOMIAL_H_
#define PROX_PROVENANCE_MONOMIAL_H_

#include <compare>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "provenance/annotation.h"

namespace prox {

class AnnotationRegistry;

/// \brief A product of annotations — one monomial of the provenance
/// semiring, e.g. `UserID₁ · MovieTitle₁ · MovieYear₁` in Table 5.1.
///
/// Factors are kept sorted (with repetitions, so `U·U` has size 2) to give
/// a canonical form under the commutativity axiom.
class Monomial {
 public:
  Monomial() = default;
  Monomial(std::initializer_list<AnnotationId> factors);
  explicit Monomial(std::vector<AnnotationId> factors);

  /// The empty product — the multiplicative identity 1.
  bool IsOne() const { return factors_.empty(); }

  /// Number of annotation occurrences (with repetitions).
  int64_t Size() const { return static_cast<int64_t>(factors_.size()); }

  const std::vector<AnnotationId>& factors() const { return factors_; }

  /// Multiplies by a single annotation.
  void MultiplyBy(AnnotationId a);

  /// Multiplies by another monomial.
  Monomial operator*(const Monomial& other) const;

  bool Contains(AnnotationId a) const;

  /// True when all factors are assigned true by `truth`.
  bool EvaluateBool(const std::function<bool(AnnotationId)>& truth) const;

  /// Applies an annotation renaming, re-sorting the result.
  Monomial Map(const std::function<AnnotationId(AnnotationId)>& h) const;

  /// Renders "U1·M5·Y1995" using the registry's names; "1" when empty.
  std::string ToString(const AnnotationRegistry& registry) const;

  auto operator<=>(const Monomial& other) const = default;

 private:
  std::vector<AnnotationId> factors_;  // sorted
};

/// Rebuilds an owning Monomial from a factor span that is already in the
/// canonical sorted order (an interned prox::ir span), so this is a copy.
inline Monomial MonomialFromSpan(const AnnotationId* data, size_t len) {
  return Monomial(std::vector<AnnotationId>(data, data + len));
}

}  // namespace prox

#endif  // PROX_PROVENANCE_MONOMIAL_H_
