#ifndef PROX_SUMMARIZE_VALUATION_CLASS_H_
#define PROX_SUMMARIZE_VALUATION_CLASS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "provenance/expression.h"
#include "provenance/valuation.h"
#include "semantics/context.h"

namespace prox {

/// \brief A class of truth valuations V_Ann — the distance of a summary
/// from the original provenance is averaged over this set (Definition
/// 3.2.2). The classes below are the ones the evaluation uses (§6.3), plus
/// the exhaustive class for the all-valuations variant.
class ValuationClass {
 public:
  virtual ~ValuationClass() = default;

  /// Enumerates the class for the annotations appearing in `p0`.
  virtual std::vector<Valuation> Generate(const ProvenanceExpression& p0,
                                          const SemanticContext& ctx) const = 0;

  virtual std::string name() const = 0;
};

/// "Cancel Single Annotation": one valuation per annotation of `p0`,
/// assigning it false and everything else true (§6.3).
///
/// With `taxonomy_consistent` set, cancelling an annotation that denotes a
/// taxonomy concept also cancels every annotation denoting a descendant
/// concept — the unique consistent completion per Example 5.2.1's
/// consistency rule (false for A implies false for all children of A).
class CancelSingleAnnotation : public ValuationClass {
 public:
  /// \param domains restrict to these domains (empty = all domains)
  explicit CancelSingleAnnotation(std::vector<DomainId> domains = {},
                                  bool taxonomy_consistent = false)
      : domains_(std::move(domains)),
        taxonomy_consistent_(taxonomy_consistent) {}

  std::vector<Valuation> Generate(const ProvenanceExpression& p0,
                                  const SemanticContext& ctx) const override;
  std::string name() const override { return "CancelSingleAnnotation"; }

  /// Configuration, for persistence (prox::store).
  const std::vector<DomainId>& domains() const { return domains_; }
  bool taxonomy_consistent() const { return taxonomy_consistent_; }

 private:
  std::vector<DomainId> domains_;
  bool taxonomy_consistent_;
};

/// "Cancel Single Attribute": one valuation per (attribute, value) pair
/// occurring among `p0`'s annotations, cancelling every annotation whose
/// entity carries that value (e.g. the valuation that cancels all Male
/// users, §6.3).
class CancelSingleAttribute : public ValuationClass {
 public:
  /// The w(v) weighting of Section 3.2's VAL-FUNC examples: uniform (the
  /// default the experiments use), or proportional to the number of
  /// annotations the valuation cancels (a proxy for "the joint probability
  /// of the truth values it defines" — larger groups are likelier
  /// hypotheses in the cancel-a-population scenario).
  enum class Weighting { kUniform, kGroupSize };

  explicit CancelSingleAttribute(std::vector<DomainId> domains = {},
                                 Weighting weighting = Weighting::kUniform)
      : domains_(std::move(domains)), weighting_(weighting) {}

  std::vector<Valuation> Generate(const ProvenanceExpression& p0,
                                  const SemanticContext& ctx) const override;
  std::string name() const override { return "CancelSingleAttribute"; }

  /// Configuration, for persistence (prox::store).
  const std::vector<DomainId>& domains() const { return domains_; }
  Weighting weighting() const { return weighting_; }

 private:
  std::vector<DomainId> domains_;
  Weighting weighting_;
};

/// All 2^n valuations over `p0`'s annotations — the variant "where the
/// distance is computed with respect to all possible valuations"
/// (Section 3.2). Guarded to small n; SampledValuations estimates the
/// same average beyond that.
class ExhaustiveValuations : public ValuationClass {
 public:
  /// \param max_annotations refuse (return empty) beyond this many
  ///   annotations, to keep 2^n enumerable.
  explicit ExhaustiveValuations(size_t max_annotations = 20)
      : max_annotations_(max_annotations) {}

  std::vector<Valuation> Generate(const ProvenanceExpression& p0,
                                  const SemanticContext& ctx) const override;
  std::string name() const override { return "Exhaustive"; }

  /// Configuration, for persistence (prox::store).
  size_t max_annotations() const { return max_annotations_; }

 private:
  size_t max_annotations_;
};

/// \brief N valuations drawn uniformly from all 2^n over `p0`'s
/// annotations, each with weight 1 — the sampling estimator of
/// Proposition 4.1.2. The distance over this set is Definition 3.2.2's
/// average over a drawn class, so the one oracle (EnumeratedDistance)
/// prices it; Hoeffding's inequality bounds the N needed for an (ε, δ)
/// absolute-error guarantee on the normalized distance.
///
/// Sample s cancels each annotation with probability ½ from its own Rng
/// stream `Rng(seed, s)`, so the drawn set depends only on (seed, N).
class SampledValuations : public ValuationClass {
 public:
  struct Options {
    double epsilon = 0.05;  ///< absolute error bound on normalized distance
    double delta = 0.05;    ///< failure probability
    int num_samples = 0;    ///< overrides the (ε, δ)-derived count when > 0
    uint64_t seed = 0x5EEDBA5E;
  };

  /// Samples needed so that P(|d' − dist| > ε) < δ for a [0,1]-bounded
  /// estimator: ⌈ln(2/δ) / (2ε²)⌉. InvalidArgument unless ε ∈ (0, 1],
  /// δ ∈ (0, 1) and the count fits an int.
  static Result<int> RequiredSamples(double epsilon, double delta);

  /// Fixes the sample count: `num_samples` when positive, else
  /// RequiredSamples(ε, δ). InvalidArgument for a negative count or, when
  /// the count is derived, for ε or δ out of range.
  static Result<SampledValuations> Create(Options options);

  std::vector<Valuation> Generate(const ProvenanceExpression& p0,
                                  const SemanticContext& ctx) const override;
  std::string name() const override { return "Sampled"; }

  int num_samples() const { return num_samples_; }

 private:
  SampledValuations(uint64_t seed, int num_samples)
      : seed_(seed), num_samples_(num_samples) {}

  uint64_t seed_;
  int num_samples_;
};

/// Concatenation of several classes (e.g. cancel-single-annotation ∪
/// cancel-single-attribute).
class CompositeValuationClass : public ValuationClass {
 public:
  void Add(std::unique_ptr<ValuationClass> inner) {
    inner_.push_back(std::move(inner));
  }

  std::vector<Valuation> Generate(const ProvenanceExpression& p0,
                                  const SemanticContext& ctx) const override;
  std::string name() const override { return "Composite"; }

 private:
  std::vector<std::unique_ptr<ValuationClass>> inner_;
};

}  // namespace prox

#endif  // PROX_SUMMARIZE_VALUATION_CLASS_H_
