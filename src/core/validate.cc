#include "core/validate.h"

#include <string>
#include <utility>

#include "common/failpoint.h"

namespace pgpub {

Status ValidatePgOptions(const PgOptions& options,
                         int sensitive_domain_size) {
  if (sensitive_domain_size < 2) {
    return Status::InvalidArgument(
        "sensitive domain must hold at least 2 values, got " +
        std::to_string(sensitive_domain_size));
  }
  // The option-bundle rules themselves live in one place —
  // PgOptions::Validate (core/pg_publisher.h). This wrapper adds only the
  // checks that need the sensitive domain size.
  RETURN_IF_ERROR(options.Validate());
  return options.ValidateClassCategories(sensitive_domain_size);
}

Status ValidateTaxonomy(const Taxonomy& taxonomy, int32_t domain_size) {
  RETURN_IF_ERROR(taxonomy.Audit());
  if (taxonomy.domain_size() != domain_size) {
    return Status::InvalidArgument(
        "taxonomy covers " + std::to_string(taxonomy.domain_size()) +
        " codes but the attribute domain holds " +
        std::to_string(domain_size));
  }
  return Status::OK();
}

Result<ValidatedDataset> ValidateDataset(
    const Table& microdata, const std::vector<const Taxonomy*>& taxonomies) {
  PGPUB_FAILPOINT(failpoints::kPublishValidate);
  std::vector<int> qi = microdata.schema().QiIndices();
  if (qi.empty()) {
    return Status::InvalidArgument("schema declares no QI attributes");
  }
  if (taxonomies.size() != qi.size()) {
    return Status::InvalidArgument(
        "need one taxonomy per QI attribute, got " +
        std::to_string(taxonomies.size()) + " for " +
        std::to_string(qi.size()));
  }
  ASSIGN_OR_RETURN(int sens, microdata.schema().SensitiveIndex());
  const int32_t us = microdata.domain(sens).size();
  if (us < 2) {
    return Status::InvalidArgument(
        "sensitive domain must hold at least 2 values, got " +
        std::to_string(us));
  }

  for (size_t i = 0; i < qi.size(); ++i) {
    const std::string& name = microdata.schema().attribute(qi[i]).name;
    if (taxonomies[i] == nullptr) {
      return Status::InvalidArgument("no taxonomy for QI attribute " + name);
    }
    RETURN_IF_ERROR(
        ValidateTaxonomy(*taxonomies[i], microdata.domain(qi[i]).size())
            .WithContext("taxonomy of QI attribute " + name));
  }
  return ValidatedDataset(microdata, taxonomies, std::move(qi), sens, us);
}

Status ValidateRequest(const ValidatedDataset& dataset,
                       const PgOptions& options) {
  RETURN_IF_ERROR(ValidatePgOptions(options, dataset.sensitive_domain_size));
  ASSIGN_OR_RETURN(int k, PgPublisher::EffectiveK(options));
  const size_t rows = dataset.microdata.num_rows();
  if (rows < static_cast<size_t>(k)) {
    return Status::FailedPrecondition(
        "microdata has fewer rows (" + std::to_string(rows) +
        ") than k (" + std::to_string(k) + ")");
  }
  return Status::OK();
}

Status ValidatePublishInputs(const Table& microdata,
                             const std::vector<const Taxonomy*>& taxonomies,
                             const PgOptions& options) {
  ASSIGN_OR_RETURN(ValidatedDataset dataset,
                   ValidateDataset(microdata, taxonomies));
  return ValidateRequest(dataset, options);
}

}  // namespace pgpub
