#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace pgpub {

/// x * log2(x) with the 0*log(0)=0 convention used by entropy formulas.
inline double XLog2X(double x) {
  return x > 0.0 ? x * std::log2(x) : 0.0;
}

/// Shannon entropy (bits) of a count vector; zero counts are skipped.
/// Returns 0 for an empty or all-zero vector.
double EntropyFromCounts(const std::vector<double>& counts);

/// Gini impurity 1 - sum(p_i^2) of a count vector.
double GiniFromCounts(const std::vector<double>& counts);

/// Clamps `x` into [lo, hi].
inline double Clamp(double x, double lo, double hi) {
  return x < lo ? lo : (x > hi ? hi : x);
}

/// Numerically careful sum (Kahan) — used where millions of small
/// probabilities accumulate.
double KahanSum(const std::vector<double>& values);

/// True if |a-b| <= tol.
inline bool Near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

/// Normalizes `v` in place to sum to 1; returns false (leaving `v`
/// untouched) if the sum is not positive.
bool NormalizeInPlace(std::vector<double>& v);

/// L1 distance between two equal-length vectors.
double L1Distance(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace pgpub
