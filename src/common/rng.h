// Deterministic random number generation.
//
// Every stochastic choice in the simulation draws from a SplitMix64-seeded
// xoshiro256** stream so that runs are bit-reproducible for a given seed.
#pragma once

#include <cstdint>

namespace nvmecr {

/// SplitMix64: used to expand a single seed into stream state.
inline uint64_t splitmix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// xoshiro256** PRNG. Small, fast, and good enough for workload jitter and
/// placement hashing; not for cryptography.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9d2c5680u) {
    uint64_t sm = seed;
    for (auto& w : s_) w = splitmix64(sm);
  }

  uint64_t next() {
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, n). n must be nonzero.
  uint64_t uniform(uint64_t n) { return next() % n; }

  /// Uniform in [lo, hi].
  uint64_t uniform(uint64_t lo, uint64_t hi) {
    return lo + uniform(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double uniform01() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Multiplicative jitter in [1-frac, 1+frac].
  double jitter(double frac) { return 1.0 + frac * (2.0 * uniform01() - 1.0); }

 private:
  static constexpr uint64_t rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  uint64_t s_[4];
};

/// 64-bit avalanche hash (Murmur3 finalizer); the comparator models hash
/// file paths onto servers with it.
inline uint64_t mix64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdull;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ull;
  k ^= k >> 33;
  return k;
}

/// FNV-1a over a byte string; stable across runs/platforms.
inline uint64_t fnv1a(const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace nvmecr
