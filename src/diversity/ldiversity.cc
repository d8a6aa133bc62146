#include "diversity/ldiversity.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"

namespace pgpub {

DistinctLDiversity::DistinctLDiversity(int l) : l_(l) {
  PGPUB_CHECK_GE(l, 1);
}

bool DistinctLDiversity::Satisfied(
    const std::vector<int64_t>& histogram) const {
  int distinct = 0;
  for (int64_t c : histogram) {
    if (c > 0 && ++distinct >= l_) return true;
  }
  return distinct >= l_;
}

std::string DistinctLDiversity::name() const {
  return StrFormat("distinct %d-diversity", l_);
}

CLDiversity::CLDiversity(double c, int l) : c_(c), l_(l) {
  PGPUB_CHECK_GT(c, 0.0);
  PGPUB_CHECK_GE(l, 1);
}

bool CLDiversity::Satisfied(const std::vector<int64_t>& histogram) const {
  std::vector<int64_t> counts;
  for (int64_t c : histogram) {
    if (c > 0) counts.push_back(c);
  }
  if (static_cast<int>(counts.size()) < l_) return false;
  std::sort(counts.begin(), counts.end(), std::greater<int64_t>());
  // Inequality 1: n_1 <= c * (n_l + ... + n_l').
  int64_t tail = 0;
  for (size_t i = static_cast<size_t>(l_) - 1; i < counts.size(); ++i) {
    tail += counts[i];
  }
  return static_cast<double>(counts[0]) <= c_ * static_cast<double>(tail);
}

std::string CLDiversity::name() const {
  return StrFormat("(%.3g,%d)-diversity", c_, l_);
}

double CLDiversity::AssumedPrior(int sensitive_domain_size) const {
  PGPUB_CHECK_GE(sensitive_domain_size, l_ - 1);
  return 1.0 / static_cast<double>(sensitive_domain_size - l_ + 2);
}

int MinDistinctSensitive(const Table& table, const QiGroups& groups,
                         int sensitive_attr) {
  if (groups.num_groups() == 0) return 0;
  const int32_t domain = table.domain(sensitive_attr).size();
  std::vector<int64_t> hist(domain, 0);
  int min_distinct = domain + 1;
  for (const auto& rows : groups.group_rows) {
    std::fill(hist.begin(), hist.end(), 0);
    int distinct = 0;
    for (uint32_t r : rows) {
      if (hist[table.value(r, sensitive_attr)]++ == 0) ++distinct;
    }
    min_distinct = std::min(min_distinct, distinct);
  }
  return min_distinct;
}

double Lemma1PriorFloor(int u, int l, int sensitive_domain_size) {
  PGPUB_CHECK_GE(u, l - 1);
  PGPUB_CHECK_GT(sensitive_domain_size - l + 2, 0);
  return static_cast<double>(u - l + 2) /
         static_cast<double>(sensitive_domain_size - l + 2);
}

}  // namespace pgpub
