#pragma once

#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace pgpub {

/// \brief SplitMix64 — used to seed the main generator and to derive
/// independent child seeds from a master seed.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  /// Returns the next 64-bit value in the stream.
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// \brief Deterministic pseudo-random generator (xoshiro256**).
///
/// Every randomized component of the library takes a `Rng` (or a seed from
/// which it builds one) so experiments are reproducible bit-for-bit. Not
/// cryptographic — statistical quality is what perturbation and sampling
/// need.
class Rng {
 public:
  /// Seeds the state from `seed` via SplitMix64 (any seed value is fine,
  /// including 0).
  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL) { Reseed(seed); }

  /// Re-initializes the stream from `seed`.
  void Reseed(uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.Next();
  }

  /// Returns the next raw 64-bit value.
  uint64_t Next64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Requires bound > 0. Uses Lemire's
  /// nearly-divisionless rejection method (unbiased).
  uint64_t UniformU64(uint64_t bound) {
    PGPUB_CHECK_GT(bound, 0u);
    uint64_t x = Next64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < bound) {
      uint64_t t = (0 - bound) % bound;
      while (l < t) {
        x = Next64();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    PGPUB_CHECK_LE(lo, hi);
    return lo + static_cast<int64_t>(
                    UniformU64(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double UniformDouble() {
    return static_cast<double>(Next64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi) {
    return lo + (hi - lo) * UniformDouble();
  }

  /// Bernoulli trial with success probability `p` (clamped to [0,1]).
  bool Bernoulli(double p) { return UniformDouble() < p; }

  /// Approximately standard-normal variate (Box–Muller, one value per call).
  double Gaussian();

  /// Draws an index in [0, weights.size()) with probability proportional to
  /// `weights[i]`. Requires a positive total weight.
  size_t Discrete(const std::vector<double>& weights);

  /// Fisher–Yates shuffle of `v`.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = UniformU64(i);
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Samples `n` distinct indices from [0, universe) without replacement,
  /// in uniformly random order. Requires n <= universe.
  std::vector<size_t> SampleWithoutReplacement(size_t universe, size_t n);

  /// Derives an independent child seed (stable given call order).
  uint64_t Fork() { return Next64(); }

  /// Counter-based stream derivation: the generator for stream `index` of
  /// `seed`. The returned state is a pure function of (seed, index) — it
  /// does not depend on how many draws any other stream made, nor on which
  /// thread asks — which is what makes per-tuple randomness invariant
  /// under ParallelFor scheduling (DESIGN.md §9). Index and seed are each
  /// whitened through SplitMix64 before mixing so that consecutive indices
  /// land on unrelated xoshiro states.
  static Rng ForStream(uint64_t seed, uint64_t index) {
    SplitMix64 ix(index);
    SplitMix64 mixed(seed ^ ix.Next());
    return Rng(mixed.Next());
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

}  // namespace pgpub
