#ifndef OWAN_UTIL_RNG_H_
#define OWAN_UTIL_RNG_H_

#include <cstdint>
#include <random>

namespace owan::util {

// Deterministic pseudo-random source used throughout the library.
//
// Every stochastic component (workload generation, simulated annealing,
// failure injection) takes an explicit Rng so that experiments are exactly
// reproducible from a seed and unit tests can pin behaviour.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  // Uniform double in [0, 1).
  double Uniform() { return unit_(engine_); }

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    return lo + (hi - lo) * Uniform();
  }

  // Uniform integer in [lo, hi] (inclusive).
  int UniformInt(int lo, int hi) {
    std::uniform_int_distribution<int> d(lo, hi);
    return d(engine_);
  }

  // Uniform index in [0, n).
  size_t Index(size_t n) {
    std::uniform_int_distribution<size_t> d(0, n - 1);
    return d(engine_);
  }

  // Exponential with the given mean (mean > 0).
  double Exponential(double mean) {
    std::exponential_distribution<double> d(1.0 / mean);
    return d(engine_);
  }

  // Bernoulli trial.
  bool Chance(double p) { return Uniform() < p; }

  // Fork an independent stream (stable derivation from current state).
  Rng Fork() { return Rng(engine_() ^ 0x9e3779b97f4a7c15ULL); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

}  // namespace owan::util

#endif  // OWAN_UTIL_RNG_H_
