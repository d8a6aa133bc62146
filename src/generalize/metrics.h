#pragma once

#include <cstdint>

#include "generalize/qi_groups.h"
#include "hierarchy/recoding.h"
#include "table/table.h"

namespace pgpub {

/// True if every QI-group has at least k rows (Property G2 granularity).
bool IsKAnonymous(const QiGroups& groups, int k);

/// Discernibility penalty: sum over groups of |group|^2 (Bayardo–Agrawal).
int64_t DiscernibilityPenalty(const QiGroups& groups);

/// Global certainty penalty: mean over all rows and QI attributes of
/// (interval_width - 1) / (domain_size - 1); 0 = no generalization,
/// 1 = fully suppressed. Attributes with a single-code domain contribute 0.
double GlobalNcp(const Table& table, const GlobalRecoding& recoding);

}  // namespace pgpub
