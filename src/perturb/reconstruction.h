#pragma once

#include <vector>

namespace pgpub {

/// \brief Distribution reconstruction through a known perturbation — the
/// standard randomized-response estimators (Warner'65; Agrawal–Srikant;
/// Evfimievski et al.). Used by the perturbation-aware decision tree
/// (the paper's reference [12] pipeline) to recover class distributions at
/// every tree node from perturbed sensitive values.
class Reconstructor {
 public:
  /// Uniform retention-replacement channel over categories that partition
  /// the sensitive domain: `category_weights[b]` = |category b| / |U^s|.
  /// The induced channel between categories is
  ///   P[a -> b] = p * 1[a==b] + (1-p) * w_b.
  Reconstructor(double p, std::vector<double> category_weights);

  /// Unbiased moment estimate of the true category counts from observed
  /// counts: n̂_b = (o_b - (1-p) * N * w_b) / p, then clamped to >= 0 and
  /// rescaled to sum N. With p == 0 reconstruction is impossible; the
  /// observed counts are returned unchanged (matching the paper's
  /// *pessimistic* baseline, which mines the randomized data as-is).
  std::vector<double> ReconstructCounts(
      const std::vector<double>& observed) const;

  double retention() const { return p_; }
  int num_categories() const {
    return static_cast<int>(category_weights_.size());
  }
  const std::vector<double>& category_weights() const {
    return category_weights_;
  }

 private:
  double p_;
  std::vector<double> category_weights_;
};

}  // namespace pgpub
