#include "generalize/metrics.h"

namespace pgpub {

bool IsKAnonymous(const QiGroups& groups, int k) {
  if (groups.num_groups() == 0) return true;
  return groups.MinGroupSize() >= static_cast<size_t>(k);
}

int64_t DiscernibilityPenalty(const QiGroups& groups) {
  int64_t penalty = 0;
  for (const auto& g : groups.group_rows) {
    penalty += static_cast<int64_t>(g.size()) *
               static_cast<int64_t>(g.size());
  }
  return penalty;
}

double GlobalNcp(const Table& table, const GlobalRecoding& recoding) {
  const size_t n = table.num_rows();
  if (n == 0 || recoding.qi_attrs.empty()) return 0.0;
  double total = 0.0;
  for (size_t i = 0; i < recoding.qi_attrs.size(); ++i) {
    const int attr = recoding.qi_attrs[i];
    const AttributeRecoding& rec = recoding.per_attr[i];
    const int32_t domain = table.domain(attr).size();
    if (domain <= 1) continue;
    // Precompute per-gen penalty, then weight by occurrence.
    std::vector<double> gen_penalty(rec.num_gen_values());
    for (int32_t g = 0; g < rec.num_gen_values(); ++g) {
      gen_penalty[g] = static_cast<double>(rec.GenInterval(g).width() - 1) /
                       static_cast<double>(domain - 1);
    }
    for (int32_t code : table.column(attr)) {
      total += gen_penalty[rec.GenOf(code)];
    }
  }
  return total / (static_cast<double>(n) *
                  static_cast<double>(recoding.qi_attrs.size()));
}

}  // namespace pgpub
