#ifndef PROX_COMMON_RNG_H_
#define PROX_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace prox {

/// \brief Deterministic pseudo-random number generator (xoshiro256**).
///
/// Every stochastic component of the library (dataset generators, the
/// sampling distance estimator, the Random baseline) draws from an Rng
/// seeded explicitly, so that experiments and tests are reproducible
/// bit-for-bit across runs and platforms. The generator is the public
/// domain xoshiro256** 1.0 of Blackman & Vigna.
class Rng {
 public:
  /// Seeds the generator via SplitMix64 expansion of `seed`.
  explicit Rng(uint64_t seed = 0xF00DCAFE12345678ULL);

  /// Counter-based stream constructor: `Rng(seed, k)` yields an
  /// independent generator for stream `k` of the logical sequence `seed`.
  /// Consumers (e.g. SampledValuations giving each Monte-Carlo sample its
  /// own stream) get draws that depend only on (seed, stream), never on
  /// which thread runs them or in what order.
  Rng(uint64_t seed, uint64_t stream);

  /// Returns the next raw 64-bit output.
  uint64_t Next();

  /// Returns a uniform integer in [0, bound). `bound` must be positive.
  /// Uses rejection sampling to avoid modulo bias.
  uint64_t UniformInt(uint64_t bound);

  /// Returns a uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// Returns a uniform double in [0, 1).
  double UniformDouble();

  /// Returns true with probability `p` (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Returns a standard normal variate (Box-Muller, cached pair).
  double Normal();

  /// Fisher-Yates shuffles `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    if (items->empty()) return;
    for (size_t i = items->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(i + 1));
      std::swap((*items)[i], (*items)[j]);
    }
  }

  /// Picks a uniform element index for a non-empty container size.
  size_t PickIndex(size_t size) { return static_cast<size_t>(UniformInt(size)); }

 private:
  uint64_t state_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// \brief Zipf(s) sampler over {0, 1, ..., n-1} by inverse-CDF table.
///
/// Rank 0 is the most popular item. Used by the dataset generators to give
/// movies / Wikipedia pages the skewed popularity real traces show.
class ZipfSampler {
 public:
  /// \param n number of items (> 0)
  /// \param s skew exponent (>= 0; 0 degenerates to uniform)
  ZipfSampler(size_t n, double s);

  /// Draws one item index using `rng`.
  size_t Sample(Rng* rng) const;

  size_t n() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace prox

#endif  // PROX_COMMON_RNG_H_
