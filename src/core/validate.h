#pragma once

#include <vector>

#include "common/status.h"
#include "core/pg_publisher.h"
#include "hierarchy/taxonomy.h"
#include "table/table.h"

namespace pgpub {

/// \brief Strict pre-publication input validation.
///
/// Everything a data owner hands the publisher — the microdata table, the
/// generalization taxonomies, and the options bundle — is untrusted. This
/// pass checks all of it up front and returns `Status` (never aborts), so
/// the publish pipeline behind it can treat violations of these
/// properties as internal bugs. The Status-vs-CHECK contract is
/// documented in DESIGN.md ("Error handling & failure model").

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

/// The O(rows) half of the publish screen, everything fixed by the dataset
/// alone: schema roles (>= 1 QI, exactly one sensitive attribute with >= 2
/// values), one non-null taxonomy per QI attribute passing
/// ValidateTaxonomy, and sensitive codes in range. A serving layer that
/// owns one dataset runs this once, when it takes the dataset.
[[nodiscard]] Status ValidateDataset(
    const Table& microdata, const std::vector<const Taxonomy*>& taxonomies);

/// The O(1) half, everything that varies per request: ValidatePgOptions
/// against the table's sensitive domain and enough rows for the effective
/// k. Assumes nothing about the taxonomies.
[[nodiscard]] Status ValidateRequest(const Table& microdata,
                                     const PgOptions& options);

/// Full pre-flight check of a publish call: ValidateDataset, then
/// ValidateRequest.
[[nodiscard]] Status ValidatePublishInputs(const Table& microdata,
                             const std::vector<const Taxonomy*>& taxonomies,
                             const PgOptions& options);

}  // namespace pgpub
