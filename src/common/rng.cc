#include "common/rng.h"

#include <cmath>

#include "common/logging.h"

namespace logcl {

Rng::Rng(uint64_t seed) : state_(seed) {}

uint64_t Rng::Next() {
  state_ += kGamma;
  return Mix(state_);
}

double Rng::Uniform() { return ToUnit(Next()); }

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

uint64_t Rng::UniformInt(uint64_t n) {
  LOGCL_CHECK_GT(n, 0u);
  // Rejection sampling to avoid modulo bias.
  uint64_t threshold = (0ULL - n) % n;
  while (true) {
    uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller transform.
  double u1 = Uniform();
  double u2 = Uniform();
  while (u1 <= 1e-300) u1 = Uniform();
  double radius = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(theta);
  has_cached_normal_ = true;
  return radius * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

Rng Rng::Split() { return Rng(Next() ^ 0xA3C59AC2F1E5B7D3ULL); }

}  // namespace logcl
