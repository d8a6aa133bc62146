#include "core/validate.h"

#include <string>

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

Status ValidateDataset(const Table& microdata,
                       const std::vector<const Taxonomy*>& taxonomies) {
  const std::vector<int> qi = microdata.schema().QiIndices();
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

  // Sensitive codes must lie in [0, |U^s|): Phase 1 indexes the
  // perturbation channel by them.
  const std::vector<int32_t>& sens_col = microdata.column(sens);
  for (size_t r = 0; r < sens_col.size(); ++r) {
    if (sens_col[r] < 0 || sens_col[r] >= us) {
      return Status::InvalidArgument(
          "sensitive code out of range at row " + std::to_string(r) +
          ": " + std::to_string(sens_col[r]));
    }
  }
  return Status::OK();
}

Status ValidateRequest(const Table& microdata, const PgOptions& options) {
  ASSIGN_OR_RETURN(int sens, microdata.schema().SensitiveIndex());
  RETURN_IF_ERROR(ValidatePgOptions(options, microdata.domain(sens).size()));
  ASSIGN_OR_RETURN(int k, PgPublisher::EffectiveK(options));
  if (microdata.num_rows() < static_cast<size_t>(k)) {
    return Status::FailedPrecondition(
        "microdata has fewer rows (" + std::to_string(microdata.num_rows()) +
        ") than k (" + std::to_string(k) + ")");
  }
  return Status::OK();
}

Status ValidatePublishInputs(const Table& microdata,
                             const std::vector<const Taxonomy*>& taxonomies,
                             const PgOptions& options) {
  PGPUB_FAILPOINT(failpoints::kPublishValidate);
  RETURN_IF_ERROR(ValidateDataset(microdata, taxonomies));
  return ValidateRequest(microdata, options);
}

}  // namespace pgpub
