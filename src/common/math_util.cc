#include "common/math_util.h"

#include "common/logging.h"

namespace pgpub {

double EntropyFromCounts(const std::vector<double>& counts) {
  double total = 0.0;
  for (double c : counts) total += c;
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  for (double c : counts) {
    if (c > 0.0) h -= XLog2X(c / total);
  }
  return h;
}

double GiniFromCounts(const std::vector<double>& counts) {
  double total = 0.0;
  for (double c : counts) total += c;
  if (total <= 0.0) return 0.0;
  double sum_sq = 0.0;
  for (double c : counts) {
    double p = c / total;
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

double KahanSum(const std::vector<double>& values) {
  double sum = 0.0, comp = 0.0;
  for (double v : values) {
    double y = v - comp;
    double t = sum + y;
    comp = (t - sum) - y;
    sum = t;
  }
  return sum;
}

bool NormalizeInPlace(std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  if (total <= 0.0) return false;
  for (double& x : v) x /= total;
  return true;
}

double L1Distance(const std::vector<double>& a,
                  const std::vector<double>& b) {
  PGPUB_CHECK_EQ(a.size(), b.size());
  double d = 0.0;
  for (size_t i = 0; i < a.size(); ++i) d += std::fabs(a[i] - b[i]);
  return d;
}

}  // namespace pgpub
