#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "table/domain.h"
#include "table/schema.h"

namespace pgpub {

/// Immutable schema + domain bundle shared between a table and every view
/// derived from it. Tables never mutate their metadata after Create, so
/// row subsets (SelectRows runs once per QI-group during stratified
/// sampling) alias one TableMeta instead of deep-copying the schema and
/// every dictionary.
struct TableMeta {
  Schema schema;
  std::vector<AttributeDomain> domains;
};

/// \brief Columnar, dictionary/offset-encoded in-memory table.
///
/// Every cell is an int32 code into the attribute's domain (see
/// AttributeDomain). This is the microdata representation 𝒟 that all
/// anonymization phases operate on.
class Table {
 public:
  Table() = default;

  /// Validates shape (one column per attribute, equal lengths, codes within
  /// domains) and constructs. So every Table keeps each code in [0,
  /// |domain|) of its attribute: TableBuilder::Build goes through Create,
  /// SelectRows copies checked codes, and nothing mutates a Table after.
  [[nodiscard]] static Result<Table> Create(Schema schema,
                              std::vector<AttributeDomain> domains,
                              std::vector<std::vector<int32_t>> columns);

  const Schema& schema() const { return meta_->schema; }
  const AttributeDomain& domain(int attr) const {
    return meta_->domains[attr];
  }
  const std::vector<AttributeDomain>& domains() const {
    return meta_->domains;
  }

  size_t num_rows() const {
    return columns_.empty() ? 0 : columns_[0].size();
  }
  int num_attributes() const { return meta_->schema.num_attributes(); }

  /// Cell accessor (code space).
  int32_t value(size_t row, int attr) const { return columns_[attr][row]; }

  const std::vector<int32_t>& column(int attr) const {
    return columns_[attr];
  }

  /// Renders a cell for display/export.
  std::string ValueToString(size_t row, int attr) const {
    return meta_->domains[attr].CodeToString(columns_[attr][row]);
  }

  /// Materializes the subset of rows given by `rows` (preserving order;
  /// duplicates allowed). Schema and domains are aliased, not copied — the
  /// subset shares this table's TableMeta.
  Table SelectRows(const std::vector<size_t>& rows) const;

  /// Per-code occurrence counts for a column.
  std::vector<int64_t> Histogram(int attr) const;

  /// Full row as codes, in schema order.
  std::vector<int32_t> Row(size_t row) const;

 private:
  /// Shared empty metadata for default-constructed tables, so accessors
  /// never dereference null.
  static std::shared_ptr<const TableMeta> EmptyMeta();

  std::shared_ptr<const TableMeta> meta_ = EmptyMeta();
  std::vector<std::vector<int32_t>> columns_;
};

/// \brief Row-at-a-time builder that parses textual records against a
/// schema, growing categorical dictionaries and (optionally) inferring
/// numeric ranges.
class TableBuilder {
 public:
  /// `domains` may pre-seed dictionaries / numeric ranges; attributes with
  /// an unset numeric range are inferred from the data on Build().
  explicit TableBuilder(Schema schema);
  TableBuilder(Schema schema, std::vector<AttributeDomain> domains);

  /// Appends a textual record (one field per attribute).
  [[nodiscard]] Status AddRow(const std::vector<std::string>& fields);

  /// Finalizes into a Table. The builder is left empty.
  [[nodiscard]] Result<Table> Build();

 private:
  Schema schema_;
  std::vector<AttributeDomain> domains_;
  bool infer_numeric_;
  /// During building, numeric cells hold raw values (offset applied at
  /// Build time once the min is known); categorical cells hold dict codes.
  std::vector<std::vector<int64_t>> raw_columns_;
};

}  // namespace pgpub
