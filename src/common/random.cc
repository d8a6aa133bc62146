#include "common/random.h"

#include <cmath>
#include <numeric>
#include <unordered_set>

namespace pgpub {

double Rng::Gaussian() {
  // Box–Muller; draws u1 in (0,1] to avoid log(0).
  double u1 = 1.0 - UniformDouble();
  double u2 = UniformDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

size_t Rng::Discrete(const std::vector<double>& weights) {
  double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  PGPUB_CHECK_GT(total, 0.0) << "Discrete() needs a positive total weight";
  double r = UniformDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  // Floating-point slack: return the last index with positive weight.
  for (size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0) return i;
  }
  return weights.size() - 1;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t universe, size_t n) {
  PGPUB_CHECK_LE(n, universe);
  if (n == 0) return {};
  // Dense case: partial Fisher–Yates over an explicit index array.
  if (n * 3 >= universe) {
    std::vector<size_t> idx(universe);
    std::iota(idx.begin(), idx.end(), 0);
    for (size_t i = 0; i < n; ++i) {
      size_t j = i + UniformU64(universe - i);
      std::swap(idx[i], idx[j]);
    }
    idx.resize(n);
    return idx;
  }
  // Sparse case: rejection into a hash set.
  std::unordered_set<size_t> seen;
  std::vector<size_t> out;
  out.reserve(n);
  while (out.size() < n) {
    size_t candidate = UniformU64(universe);
    if (seen.insert(candidate).second) out.push_back(candidate);
  }
  return out;
}

}  // namespace pgpub
