#pragma once

#include <cstdint>
#include <vector>

#include "common/parallel/thread_pool.h"
#include "common/random.h"
#include "common/result.h"

namespace pgpub {

/// \brief Uniform retention–replacement perturbation — Phase 1 of perturbed
/// generalization (Section IV, P2) and Equation 11 of the paper.
///
/// With retention probability p, a sensitive value is kept; otherwise it is
/// replaced by a uniform draw from the whole domain (the kept value is also
/// a legal draw). So
///   P[a -> b] = p + (1-p)/|U^s|   if a == b
///             = (1-p)/|U^s|       otherwise.
class UniformPerturbation {
 public:
  /// `p` in [0,1]; `domain_size` = |U^s| > 0.
  UniformPerturbation(double p, int32_t domain_size);

  double retention() const { return p_; }
  int32_t domain_size() const { return domain_size_; }

  /// Equation 11: transition probability a -> b.
  double TransitionProb(int32_t a, int32_t b) const;

  /// Probability of observing `b` when the true value is distributed by
  /// `pdf` (a distribution over codes): p * pdf[b] + (1-p)/|U^s|.
  double ObservationProb(const std::vector<double>& pdf, int32_t b) const;

  /// Perturbs one value.
  int32_t Perturb(int32_t value, Rng& rng) const;

  /// Perturbs one value as stream `index` of `seed` — a pure function of
  /// (seed, index, value), independent of call order and thread count.
  int32_t PerturbAt(int32_t value, uint64_t seed, uint64_t index) const {
    Rng rng = Rng::ForStream(seed, index);
    return Perturb(value, rng);
  }

  /// Perturbs a whole column with out[i] = PerturbAt(column[i], seed, i),
  /// optionally fanned out over `pool` (nullptr = serial). The output is
  /// bit-identical at every thread count. Fails only on fault injection
  /// (perturb.worker_fail) or a nested parallel region.
  [[nodiscard]] Result<std::vector<int32_t>> PerturbColumnStreams(
      const std::vector<int32_t>& column, uint64_t seed,
      ThreadPool* pool = nullptr) const;

 private:
  double p_;
  int32_t domain_size_;
};

}  // namespace pgpub
