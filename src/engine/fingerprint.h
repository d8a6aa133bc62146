#pragma once

#include <cstddef>
#include <cstdint>

#include "core/published_table.h"

namespace pgpub::engine {

/// \brief Streaming order-sensitive 64-bit content hash — the TDS class-label
/// key of the engine's recoding cache and the response digest of a release
/// (DESIGN.md §10).
///
/// SplitMix64-finalizer mixing: fast enough to digest a 700k-row table in
/// milliseconds, with avalanche good enough that distinct inputs collide
/// with probability ~2^-64. NOT cryptographic — an adversary who controls
/// the cached inputs could engineer a collision, which is why every
/// consumer of a cache hit re-checks the safety property it cares about
/// (PgPublisher re-runs the k-anonymity check on cached recodings).
class Fingerprinter {
 public:
  void Mix(uint64_t v) {
    ++count_;
    state_ = Scramble(state_ + 0x9e3779b97f4a7c15ULL + Scramble(v));
  }

  void MixDouble(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    Mix(bits);
  }

  void MixI32Span(const int32_t* data, size_t n);

  /// Final digest; folds in the element count so that e.g. {0} and {0,0}
  /// differ even though every mixed word is zero.
  uint64_t digest() const { return Scramble(state_ ^ count_); }

 private:
  static uint64_t Scramble(uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  uint64_t state_ = 0x6c62272e07bb0142ULL;
  uint64_t count_ = 0;
};

/// Response digest of a release: every published cell (generalized QI
/// ids, perturbed sensitive codes, group sizes) plus the (p, k)
/// parameters. Two releases with the same digest are byte-identical in
/// everything a consumer can observe — the serving layer and the load
/// bench use this for their fixed-seed determinism guards.
uint64_t FingerprintPublishedTable(const PublishedTable& published);

}  // namespace pgpub::engine
