#include "perturb/reconstruction.h"

#include <cmath>
#include <utility>

#include "common/logging.h"

namespace pgpub {

Reconstructor::Reconstructor(double p, std::vector<double> category_weights)
    : p_(p), category_weights_(std::move(category_weights)) {
  PGPUB_CHECK(p >= 0.0 && p <= 1.0);
  PGPUB_CHECK(!category_weights_.empty());
  double sum = 0.0;
  for (double w : category_weights_) {
    PGPUB_CHECK_GE(w, 0.0);
    sum += w;
  }
  PGPUB_CHECK(std::fabs(sum - 1.0) < 1e-9)
      << "category weights must sum to 1, got " << sum;
}

std::vector<double> Reconstructor::ReconstructCounts(
    const std::vector<double>& observed) const {
  PGPUB_CHECK_EQ(observed.size(), category_weights_.size());
  double total = 0.0;
  for (double o : observed) total += o;
  if (total <= 0.0) return observed;
  if (p_ <= 0.0) return observed;  // unrecoverable; mine as-is

  std::vector<double> est(observed.size());
  double est_total = 0.0;
  for (size_t b = 0; b < observed.size(); ++b) {
    est[b] = (observed[b] - (1.0 - p_) * total * category_weights_[b]) / p_;
    if (est[b] < 0.0) est[b] = 0.0;
    est_total += est[b];
  }
  if (est_total <= 0.0) {
    // Degenerate clamp: fall back to the observed counts.
    return observed;
  }
  const double scale = total / est_total;
  for (double& e : est) e *= scale;
  return est;
}

}  // namespace pgpub
