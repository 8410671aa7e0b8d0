// Deterministic random number generation. Every stochastic component in the
// library takes an explicit Rng so experiments are reproducible bit-for-bit.
#pragma once

#include <cstdint>
#include <random>

namespace lgv {

/// SplitMix64 finalizer (Steele, Lea & Flood 2014): a cheap bijective mixer
/// whose output passes BigCrush. Used to derive independent seeds from a
/// shared base — adjacent inputs (fleet seed + 0, + 1, + 2, ...) land at
/// uncorrelated points of the output space, unlike xor-ing a small salt.
inline uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Per-vehicle seed for a fleet: every simulated LGV shares one fleet seed
/// but must draw an independent stream (identical seeds would give perfectly
/// correlated scan noise and particle clouds across the whole fleet —
/// invalidating any fleet-scale measurement). Two rounds of splitmix64 so
/// that (seed, index) and (seed + 1, index - 1) cannot collide.
inline uint64_t vehicle_seed(uint64_t fleet_seed, uint32_t vehicle_index) {
  return splitmix64(splitmix64(fleet_seed) + vehicle_index);
}

/// Seedable pseudo-random source (Mersenne Twister under the hood) with the
/// handful of draws the robotics stack needs. Not thread-safe by design:
/// parallel code forks per-thread child generators via `fork()`.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5eed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Gaussian with the given mean and standard deviation (>= 0; 0 returns
  /// `mean`). Draws a standard normal and scales it, because
  /// std::normal_distribution requires a positive deviation; every call
  /// consumes the same engine values whatever the deviation.
  double gaussian(double mean = 0.0, double stddev = 1.0) {
    return mean + stddev * std::normal_distribution<double>()(engine_);
  }

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p) { return std::bernoulli_distribution(p)(engine_); }

  /// Derive an independent child generator; deterministic given this
  /// generator's current state and `salt`.
  Rng fork(uint64_t salt) {
    return Rng(engine_() ^ (salt * 0x9e3779b97f4a7c15ULL));
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace lgv
