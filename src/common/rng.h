// Deterministic pseudo-random number generation used across the library.
//
// All stochastic components (parameter init, dropout, synthetic data,
// Gaussian noise injection) draw from logcl::Rng so that every experiment is
// reproducible from a single seed.

#ifndef LOGCL_COMMON_RNG_H_
#define LOGCL_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace logcl {

/// SplitMix64-based PRNG. Small, fast, seedable, and with a Split() operation
/// that derives independent child streams (used to give each module its own
/// stream so adding randomness in one place never perturbs another).
///
/// SplitMix64 is counter-based: draw i from the current state is
/// Mix(state + (i + 1) * kGamma). The *At accessors read any draw without
/// advancing, so a kernel can take its draws in parallel, in any order, and
/// still see exactly the values a serial sweep would; Skip(n) then moves the
/// stream past them.
class Rng {
 public:
  explicit Rng(uint64_t seed = kGamma);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform in [0, 1).
  double Uniform();

  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Standard normal via Box-Muller.
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Bernoulli draw with probability p of returning true.
  bool Bernoulli(double p);

  /// The value the (i+1)-th Uniform(lo, hi) call from here would return.
  double UniformAt(uint64_t i, double lo, double hi) const {
    return lo + (hi - lo) * ToUnit(Mix(state_ + (i + 1) * kGamma));
  }

  /// The value the (i+1)-th Bernoulli(p) call from here would return.
  bool BernoulliAt(uint64_t i, double p) const {
    return ToUnit(Mix(state_ + (i + 1) * kGamma)) < p;
  }

  /// Advances the stream as n Next() calls would (the cached Box-Muller
  /// value, if any, is kept).
  void Skip(uint64_t n) { state_ += n * kGamma; }

  /// Derives an independent child generator.
  Rng Split();

  /// Fisher-Yates shuffle of an index vector.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    if (values->empty()) return;
    for (size_t i = values->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(i + 1));
      std::swap((*values)[i], (*values)[j]);
    }
  }

 private:
  // SplitMix64's state increment (the golden-ratio constant).
  static constexpr uint64_t kGamma = 0x9E3779B97F4A7C15ULL;

  static uint64_t Mix(uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  // 53 high bits -> double in [0, 1).
  static double ToUnit(uint64_t bits) {
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
  }

  uint64_t state_;
  // Box-Muller produces pairs; cache the second value.
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace logcl

#endif  // LOGCL_COMMON_RNG_H_
