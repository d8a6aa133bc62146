#pragma once

#include <cstdint>
#include <vector>

#include "hierarchy/taxonomy.h"
#include "table/table.h"

/// \file
/// The columnar Phase-2 data layer (DESIGN.md §15).
///
/// QiIndex is the *base frequency set* of a table: its distinct raw QI
/// tuples, dictionary-encoded per attribute as flat code columns, with a
/// packed row→tuple group-id vector and per-tuple row counts. Phase-2
/// search never needs anything finer — every candidate generalization
/// partitions rows by a function of their raw QI codes alone, so any
/// node's group counts *fold* from the base set in O(tuples · attrs) via
/// per-(attr, depth) code-remap tables instead of rescanning rows.
///
/// LatticeCounter applies that fold for Incognito. It precomputes, for
/// every (attribute, generalization depth), the map from raw code to the
/// rank of the covering cut interval. A check folds one k-anonymous
/// parent node into per-tuple cell numbers, one attribute at a time, and
/// then decides each child that specializes one attribute by one level
/// in a single pass, by refining the parent's cells. The verdict is
/// exactly the row-wise
/// `IsKAnonymous(ComputeQiGroups(table, RecodingAtDepths(...)), k)`:
/// both count the same partition, one over rows, one over tuples with
/// multiplicity. It also precomputes each (attribute, depth)'s share of
/// GlobalNcp, so scoring a node needs no pass over the table.
namespace pgpub::columnar {

/// \brief Distinct raw QI tuples of a table, columnar, with row counts.
///
/// Immutable after Build(); safe to share across threads and requests for
/// the lifetime of the underlying table. Tuple ids are assigned in a
/// deterministic first-encounter order, but no consumer depends on the
/// order — group counts and entropy terms are order-free integer sums.
class QiIndex {
 public:
  /// Scans `table` once and collapses it to distinct QI tuples.
  /// `qi_attrs` are column indices into `table`.
  static QiIndex Build(const Table& table, const std::vector<int>& qi_attrs);

  const std::vector<int>& qi_attrs() const { return qi_attrs_; }
  size_t num_tuples() const { return weights_.size(); }
  size_t num_rows() const { return row_to_tuple_.size(); }

  /// codes(a)[t] = raw code of attribute qi_attrs()[a] in tuple t.
  const std::vector<int32_t>& codes(size_t a) const { return codes_[a]; }

  /// weights()[t] = number of table rows collapsing to tuple t.
  const std::vector<int64_t>& weights() const { return weights_; }

  /// Packed group-id vector: row_to_tuple()[r] = tuple id of row r.
  const std::vector<int32_t>& row_to_tuple() const { return row_to_tuple_; }

 private:
  std::vector<int> qi_attrs_;
  std::vector<std::vector<int32_t>> codes_;  ///< [attr][tuple]
  std::vector<int64_t> weights_;             ///< [tuple]
  std::vector<int32_t> row_to_tuple_;        ///< [row]
};

/// \brief Incognito's k-anonymity oracle and NCP scorer over the base
/// frequency set.
///
/// Thread-safe: each call folds into its thread's own thread-local
/// scratch (a per-tuple cell-number array, a flat slot table and a hash
/// map), reused by every call that thread makes, so after warm-up a call
/// allocates nothing and concurrent calls never share memory.
class LatticeCounter {
 public:
  /// `taxonomies` must outlive the counter and cover index->qi_attrs()
  /// pairwise (same order). Domain sizes must match the indexed table.
  LatticeCounter(const QiIndex* index,
                 std::vector<const Taxonomy*> taxonomies);

  /// Decides the children of the lattice node at `parent` depths. Bit j
  /// of `child_attrs` asks about the child one level deeper on attribute
  /// j; bit j of the result is set iff every QI group of
  /// RecodingAtDepths(..., that child) has at least k rows (k >= 1).
  /// Depths clamp to each taxonomy's height, mirroring RecodingAtDepths.
  /// One fold labels the parent's cells; each child then costs one pass
  /// over the tuples. Exact at any cell-space size.
  uint64_t AnonymousChildren(const std::vector<int>& parent,
                             uint64_t child_attrs, int k) const;

  /// GlobalNcp(table, RecodingAtDepths(..., depths)) from the
  /// per-(attribute, depth) sums: the same value up to floating-point
  /// summation order (depths clamp the same way).
  double NcpAtDepths(const std::vector<int>& depths) const;

 private:
  const QiIndex* index_;
  /// remap_[a][depth][code] = rank of the depth-`depth` cut interval of
  /// taxonomy a covering `code`.
  std::vector<std::vector<std::vector<int32_t>>> remap_;
  /// num_intervals_[a][depth] = interval count of that cut (the radix).
  std::vector<std::vector<int32_t>> num_intervals_;
  /// ncp_terms_[a][depth] = sum over rows of (interval width - 1) /
  /// (domain size - 1) for that cut; 0 on a single-code domain.
  std::vector<std::vector<double>> ncp_terms_;
};

/// Widest QI set a LatticeCounter (and so Incognito) accepts.
inline constexpr size_t kMaxLatticeAttrs = 64;

/// Largest generalization lattice Incognito searches, in nodes: the
/// product over QI attributes of (taxonomy height + 1). Its per-node
/// verdicts live in one flat array.
inline constexpr size_t kMaxLatticeNodes = 250000;

/// Largest flat slot table a LatticeCounter pass uses, in bytes (4 per
/// cell). A pass whose cell space is wider numbers or counts its cells in
/// a hash map instead; the result is exact either way — this only trades
/// memory for speed.
inline constexpr uint64_t kDenseTableBytes = uint64_t{1} << 20;

}  // namespace pgpub::columnar
