#include "core/published_table.h"

#include "common/csv.h"

namespace pgpub {

PublishedTable::PublishedTable(Schema source_schema,
                               std::vector<AttributeDomain> domains,
                               GlobalRecoding recoding, int sensitive_attr,
                               double retention_p, int k,
                               std::vector<std::vector<int32_t>> qi_gen,
                               std::vector<int32_t> sensitive,
                               std::vector<uint32_t> group_size)
    : source_schema_(std::move(source_schema)),
      domains_(std::move(domains)),
      recoding_(std::move(recoding)),
      sensitive_attr_(sensitive_attr),
      retention_p_(retention_p),
      k_(k),
      qi_gen_(std::move(qi_gen)),
      sensitive_(std::move(sensitive)),
      group_size_(std::move(group_size)) {
  PGPUB_CHECK_EQ(qi_gen_.size(), sensitive_.size());
  PGPUB_CHECK_EQ(qi_gen_.size(), group_size_.size());
  // Index rows by generalized signature (mixed radix, as in
  // GlobalRecoding::SignatureOfCodes).
  for (size_t r = 0; r < qi_gen_.size(); ++r) {
    uint64_t key = 0;
    for (size_t i = 0; i < recoding_.qi_attrs.size(); ++i) {
      key = key * static_cast<uint64_t>(
                      recoding_.per_attr[i].num_gen_values()) +
            static_cast<uint64_t>(qi_gen_[r][i]);
    }
    auto [it, inserted] = signature_index_.emplace(key, r);
    PGPUB_CHECK(inserted)
        << "duplicate generalized QI-vector in published table (violates "
           "Phase 3 / Property G2 uniqueness)";
    (void)it;
  }
}

std::string PublishedTable::RenderQi(size_t row, int qi_index,
                                     const Taxonomy* taxonomy) const {
  const AttributeRecoding& rec = recoding_.per_attr[qi_index];
  const int attr = recoding_.qi_attrs[qi_index];
  return rec.Render(qi_gen_[row][qi_index], domains_[attr], taxonomy);
}

Result<size_t> PublishedTable::CrucialTuple(
    const std::vector<int32_t>& victim_qi_codes) const {
  if (victim_qi_codes.size() != recoding_.qi_attrs.size()) {
    return Status::InvalidArgument("victim QI width mismatch");
  }
  const std::optional<size_t> row =
      RowOfSignature(recoding_.SignatureOfCodes(victim_qi_codes));
  if (!row.has_value()) {
    return Status::NotFound(
        "no published tuple generalizes the given QI-vector");
  }
  return *row;
}

Status PublishedTable::ToCsv(
    const std::string& path,
    const std::vector<const Taxonomy*>& taxonomies) const {
  if (!taxonomies.empty() &&
      taxonomies.size() != recoding_.qi_attrs.size()) {
    return Status::InvalidArgument(
        "taxonomies must be empty or one per QI attribute");
  }
  std::vector<std::string> header;
  for (size_t i = 0; i < recoding_.qi_attrs.size(); ++i) {
    header.push_back(source_schema_.attribute(recoding_.qi_attrs[i]).name);
  }
  header.push_back(source_schema_.attribute(sensitive_attr_).name);
  header.push_back("G");

  std::vector<std::vector<std::string>> rows;
  rows.reserve(num_rows());
  for (size_t r = 0; r < num_rows(); ++r) {
    std::vector<std::string> row;
    row.reserve(header.size());
    for (size_t i = 0; i < recoding_.qi_attrs.size(); ++i) {
      row.push_back(RenderQi(r, static_cast<int>(i),
                             taxonomies.empty() ? nullptr : taxonomies[i]));
    }
    row.push_back(domains_[sensitive_attr_].CodeToString(sensitive_[r]));
    row.push_back(std::to_string(group_size_[r]));
    rows.push_back(std::move(row));
  }
  return Csv::WriteFile(path, header, rows);
}

}  // namespace pgpub
