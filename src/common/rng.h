// Deterministic random number generation for the simulation substrate.
//
// Every stochastic component receives an Rng (or a seed to build one) so
// that whole-system runs are reproducible bit-for-bit. Child streams are
// derived by hashing a label into the parent seed, which decouples the
// consumption of randomness in one component from the values seen by
// another (adding a draw in the battery model must not change which SPL a
// microphone reports).
#pragma once

#include <cstdint>
#include <mutex>
#include <random>
#include <string_view>

#include "common/hash.h"

namespace mps {

/// Seeded pseudo-random stream with convenience draws for the simulators.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  /// Derives an independent child stream; the same (seed, label) pair
  /// always yields the same stream.
  Rng child(std::string_view label) const {
    return Rng(seed_ ^ (fnv1a64(label) | 1ull));
  }

  /// Derives an independent child stream keyed by an integer (e.g. user
  /// index), composable with child(label).
  Rng child(std::uint64_t key) const {
    return Rng(seed_ ^ (key * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull));
  }

  /// Uniform double in [0, 1).
  double uniform() { return std::uniform_real_distribution<double>(0.0, 1.0)(engine_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Normal draw with the given mean and standard deviation.
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Log-normal draw parameterized by the underlying normal's mu/sigma.
  double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  /// Exponential draw with the given mean (not rate).
  double exponential_mean(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Bernoulli draw with success probability p.
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Index in [0, weights.size()) drawn proportionally to weights.
  /// Weights need not sum to 1; non-positive weights are treated as 0.
  template <typename Container>
  std::size_t weighted_index(const Container& weights) {
    double total = 0.0;
    for (double w : weights) total += (w > 0.0 ? w : 0.0);
    if (total <= 0.0) return 0;
    double x = uniform() * total;
    std::size_t i = 0;
    for (double w : weights) {
      if (w > 0.0) {
        x -= w;
        if (x < 0.0) return i;
      }
      ++i;
    }
    return weights.size() - 1;
  }

  /// Poisson draw with the given mean.
  ///
  /// Serialized on a process-wide mutex: libstdc++'s poisson_distribution
  /// calls lgamma(), which writes the process-global `signgam` (a POSIX
  /// relic) — a data race when independent Rngs draw from concurrent
  /// exec::SweepExecutor jobs. The lock does not touch the engine, so
  /// every stream's value sequence is unchanged; contention is negligible
  /// (poisson backs low-rate event planning, not hot loops).
  int poisson(double mean) {
    if (mean <= 0.0) return 0;
    static std::mutex lgamma_mutex;
    std::scoped_lock lock(lgamma_mutex);
    return std::poisson_distribution<int>(mean)(engine_);
  }

  std::uint64_t seed() const { return seed_; }

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_ = 0;
};

inline Rng make_rng(std::uint64_t seed) { return Rng(seed); }

}  // namespace mps
