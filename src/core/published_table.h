#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "hierarchy/recoding.h"
#include "hierarchy/taxonomy.h"
#include "table/table.h"

namespace pgpub {

/// \brief The released table 𝒟* of perturbed generalization: one tuple per
/// QI-group, each carrying generalized QI values, a (possibly perturbed)
/// sensitive value, and the stratum size G.
class PublishedTable {
 public:
  /// Evaluation-only side channel (never serialized): where each published
  /// tuple came from. Used by the attack simulator and tests to compute
  /// ground-truth posteriors; a real release would not include it.
  struct Provenance {
    /// Microdata row sampled for each published tuple.
    std::vector<uint32_t> source_row;
    /// All microdata rows of each published tuple's source QI-group.
    std::vector<std::vector<uint32_t>> group_members;
  };

  PublishedTable() = default;

  /// Assembles a published table; `qi_gen[r]` are generalized value ids
  /// parallel to `recoding.qi_attrs`.
  PublishedTable(Schema source_schema, std::vector<AttributeDomain> domains,
                 GlobalRecoding recoding, int sensitive_attr,
                 double retention_p, int k,
                 std::vector<std::vector<int32_t>> qi_gen,
                 std::vector<int32_t> sensitive,
                 std::vector<uint32_t> group_size);

  size_t num_rows() const { return sensitive_.size(); }
  int num_qi_attrs() const {
    return static_cast<int>(recoding_.qi_attrs.size());
  }

  const Schema& source_schema() const { return source_schema_; }
  const GlobalRecoding& recoding() const { return recoding_; }
  int sensitive_attr() const { return sensitive_attr_; }
  double retention_p() const { return retention_p_; }
  int k() const { return k_; }
  const AttributeDomain& domain(int attr) const { return domains_[attr]; }

  /// Generalized value id of published row `row` on the `qi_index`-th QI
  /// attribute.
  int32_t qi_gen(size_t row, int qi_index) const {
    return qi_gen_[row][qi_index];
  }
  /// Observed (perturbed) sensitive code y of the row.
  int32_t sensitive(size_t row) const { return sensitive_[row]; }
  /// The G attribute (stratum size, step S3).
  uint32_t group_size(size_t row) const { return group_size_[row]; }

  /// Renders a published QI cell (taxonomy label where one matches).
  std::string RenderQi(size_t row, int qi_index,
                       const Taxonomy* taxonomy) const;

  /// Step A1 of a linking attack: the unique published row whose
  /// generalized QI-vector generalizes `victim_qi_codes` (raw codes,
  /// parallel to recoding().qi_attrs). NotFound when the victim's cell
  /// produced no published tuple (cannot happen for members of 𝒟).
  [[nodiscard]] Result<size_t> CrucialTuple(const std::vector<int32_t>& victim_qi_codes)
      const;

  /// Writes the release as CSV: generalized QI columns, the sensitive
  /// column, and G. `taxonomies` may be empty or hold one (possibly null)
  /// pointer per QI attribute for labeled rendering.
  [[nodiscard]] Status ToCsv(const std::string& path,
               const std::vector<const Taxonomy*>& taxonomies) const;

  const std::optional<Provenance>& provenance() const { return provenance_; }
  void set_provenance(Provenance p) { provenance_ = std::move(p); }

 private:
  Schema source_schema_;
  std::vector<AttributeDomain> domains_;
  GlobalRecoding recoding_;
  int sensitive_attr_ = -1;
  double retention_p_ = 1.0;
  int k_ = 1;

  std::vector<std::vector<int32_t>> qi_gen_;
  std::vector<int32_t> sensitive_;
  std::vector<uint32_t> group_size_;

  /// Generalized-signature -> published row, for CrucialTuple.
  std::unordered_map<uint64_t, size_t> signature_index_;

  std::optional<Provenance> provenance_;
};

}  // namespace pgpub
