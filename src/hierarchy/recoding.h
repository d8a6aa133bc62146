#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "hierarchy/interval.h"
#include "hierarchy/taxonomy.h"
#include "table/domain.h"
#include "table/table.h"

namespace pgpub {

/// \brief Global recoding of one attribute: a partition of the code space
/// [0, domain_size) into contiguous intervals. Generalized value ids are the
/// interval ranks (0-based, in code order).
///
/// Property G3 of the paper (non-overlap between distinct generalized
/// values) holds by construction since the intervals partition the domain.
class AttributeRecoding {
 public:
  AttributeRecoding() = default;

  /// The coarsest recoding: one generalized value covering the whole domain.
  static AttributeRecoding Single(int32_t domain_size);

  /// The finest recoding: every code is its own generalized value.
  static AttributeRecoding Identity(int32_t domain_size);

  /// From ascending interval start positions; starts[0] must be 0, every
  /// start < domain_size.
  [[nodiscard]] static Result<AttributeRecoding> FromStarts(int32_t domain_size,
                                              std::vector<int32_t> starts);

  int32_t domain_size() const {
    return static_cast<int32_t>(code_to_gen_.size());
  }
  int32_t num_gen_values() const {
    return static_cast<int32_t>(starts_.size());
  }

  /// code -> generalized value id, O(1).
  int32_t GenOf(int32_t code) const { return code_to_gen_[code]; }

  /// Generalized value id -> covered interval.
  Interval GenInterval(int32_t gen) const;

  const std::vector<int32_t>& starts() const { return starts_; }

  /// Refines the partition: codes >= `first_code_of_right` within the
  /// interval containing it start a new generalized value. No-op if the
  /// boundary already exists. Requires 0 < first_code_of_right <
  /// domain_size.
  void SplitAt(int32_t first_code_of_right);

  /// Renders a generalized value: singleton -> the domain value; exact
  /// taxonomy-node match -> node label; otherwise "[lo_value, hi_value]".
  std::string Render(int32_t gen, const AttributeDomain& domain,
                     const Taxonomy* taxonomy) const;

 private:
  void RebuildIndex();

  std::vector<int32_t> starts_;       ///< Ascending, starts_[0] == 0.
  std::vector<int32_t> code_to_gen_;  ///< Size == domain size.
};

/// \brief Global recoding of the full quasi-identifier: one
/// AttributeRecoding per QI attribute (schema order of `qi_attrs`).
struct GlobalRecoding {
  std::vector<int> qi_attrs;                ///< Attribute indices in the table.
  std::vector<AttributeRecoding> per_attr;  ///< Parallel to qi_attrs.

  /// Coarsest recoding for the given table/QI set.
  static GlobalRecoding AllSingle(const Table& table,
                                  const std::vector<int>& qi_attrs);

  /// Finest recoding (identity) for the given table/QI set.
  static GlobalRecoding AllIdentity(const Table& table,
                                    const std::vector<int>& qi_attrs);

  /// Mixed-radix key of a row's generalized QI-vector; two rows share a key
  /// iff they land in the same QI-group. The radix product must fit uint64
  /// (checked).
  uint64_t SignatureOfRow(const Table& table, size_t row) const;

  /// Signature for an arbitrary raw QI code vector (parallel to qi_attrs) —
  /// used by the adversary to locate a victim's crucial tuple.
  uint64_t SignatureOfCodes(const std::vector<int32_t>& qi_codes) const;

  /// Generalized value ids of a row, parallel to qi_attrs.
  std::vector<int32_t> GenVectorOfRow(const Table& table, size_t row) const;

  /// Total number of possible signatures (product of gen counts),
  /// saturating at UINT64_MAX when the product does not fit — the case in
  /// which SignatureOfRow/SignatureOfCodes cannot key every row.
  uint64_t NumCells() const;
};

}  // namespace pgpub
