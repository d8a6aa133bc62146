#pragma once

#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/pg_publisher.h"
#include "hierarchy/taxonomy.h"
#include "table/table.h"

namespace pgpub {

/// \brief Strict pre-publication input validation. Everything a data owner
/// hands the publisher (table, taxonomies, options) is untrusted; these
/// checks return `Status` (never abort), so the pipeline behind them may
/// treat violations as internal bugs (DESIGN.md, "Error handling").

/// Validates an options bundle against a sensitive domain of
/// `sensitive_domain_size` values: s in (0,1], k >= 0, p in [0,1] or
/// negative with a solvable target, lambda in (0,1], 0 < rho1 < rho2 <= 1,
/// 0 < delta <= 1, well-formed class_category_starts, finite numerics.
[[nodiscard]] Status ValidatePgOptions(const PgOptions& options, int sensitive_domain_size);

/// Structural audit of a taxonomy against the attribute domain it is
/// meant to generalize: leaves cover exactly [0, domain_size) with no
/// overlapping intervals (delegates to Taxonomy::Audit and checks the
/// root width).
[[nodiscard]] Status ValidateTaxonomy(const Taxonomy& taxonomy, int32_t domain_size);

/// \brief A (microdata, taxonomies) pair that passed ValidateDataset, the
/// only code that can make one; every publish pipeline takes it and then
/// checks only the request. It refers to the table and the taxonomies
/// (the pointer list is copied), which must outlive it.
class ValidatedDataset {
 public:
  const Table& microdata;
  const std::vector<const Taxonomy*> taxonomies;  ///< Parallel to `qi`.
  const std::vector<int> qi;
  const int sensitive;
  const int32_t sensitive_domain_size;  ///< |U^s| >= 2.

 private:
  friend Result<ValidatedDataset> ValidateDataset(
      const Table& microdata, const std::vector<const Taxonomy*>& taxonomies);
  ValidatedDataset(const Table& table, std::vector<const Taxonomy*> tax,
                   std::vector<int> qi_attrs, int sens, int32_t us)
      : microdata(table), taxonomies(std::move(tax)),
        qi(std::move(qi_attrs)), sensitive(sens), sensitive_domain_size(us) {}
};

/// The dataset half of the publish screen: schema roles (>= 1 QI, one
/// sensitive attribute with >= 2 values) and one non-null taxonomy per QI
/// attribute passing ValidateTaxonomy. O(taxonomy nodes), since Table
/// already keeps every code in its domain. Evaluates `publish.validate`.
[[nodiscard]] Result<ValidatedDataset> ValidateDataset(
    const Table& microdata, const std::vector<const Taxonomy*>& taxonomies);
/// Refused: a temporary table would leave the result dangling.
Result<ValidatedDataset> ValidateDataset(
    Table&&, const std::vector<const Taxonomy*>&) = delete;

/// The O(1) half, everything that varies per request: ValidatePgOptions
/// against |U^s| and enough rows for the effective k.
[[nodiscard]] Status ValidateRequest(const ValidatedDataset& dataset,
                                     const PgOptions& options);

/// Full pre-flight check of a publish call: ValidateDataset, then
/// ValidateRequest.
[[nodiscard]] Status ValidatePublishInputs(const Table& microdata,
                             const std::vector<const Taxonomy*>& taxonomies,
                             const PgOptions& options);

}  // namespace pgpub
