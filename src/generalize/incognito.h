#pragma once

#include <vector>

#include "common/parallel/thread_pool.h"
#include "common/result.h"
#include "core/columnar/qi_index.h"
#include "generalize/qi_groups.h"
#include "hierarchy/recoding.h"
#include "hierarchy/taxonomy.h"
#include "table/table.h"

namespace pgpub {

/// Options for full-domain generalization search.
struct IncognitoOptions {
  int k = 2;
  /// Optional worker pool for the per-level parent folds (nullptr =
  /// serial). Which parent decides which child is chosen serially and
  /// levels are swept in the same BFS order either way, so the chosen node
  /// is bit-identical at every thread count.
  ThreadPool* pool = nullptr;

  /// Optional prebuilt QI index over (table, qi_attrs). Null = build one
  /// per search. Each parent fold labels this base frequency set
  /// (distinct raw QI tuples + counts) with the parent's cells through
  /// per-(attr, depth) code remaps, and each child refines those cells
  /// (DESIGN.md §15), instead of rescanning rows. Only perfbench sets it;
  /// slated for removal with the next benchmark change (ROADMAP).
  const columnar::QiIndex* qi_index = nullptr;
};

/// \brief Full-domain generalization search in the spirit of Incognito
/// (LeFevre et al., SIGMOD'05).
///
/// Every QI attribute is generalized to one uniform taxonomy depth; a
/// lattice node is a vector of depths. Exploits the generalization
/// monotonicity property (if a node is k-anonymous, so is every more
/// general node) to explore the lattice top-down — a node is only
/// checked when all its direct generalizations are k-anonymous — and
/// returns the k-anonymous node with the lowest NCP among the *minimal*
/// k-anonymous nodes (those none of whose specializations are
/// k-anonymous). Each level's candidates are decided by refining the
/// cells of a greedily chosen cover of k-anonymous parents, and NCP is
/// summed from per-(attribute, depth) terms. At most 64 QI attributes
/// and columnar::kMaxLatticeNodes lattice nodes (InvalidArgument beyond;
/// use TDS for wide schemas); k < 1 is InvalidArgument, and fewer rows
/// than k FailedPrecondition.
///
/// Suited to few QI attributes with shallow hierarchies; the paper's SAL
/// pipeline uses TDS instead (both satisfy G1–G3).
[[nodiscard]] Result<GlobalRecoding> IncognitoSearch(
    const Table& table, const std::vector<int>& qi_attrs,
    const std::vector<const Taxonomy*>& taxonomies,
    const IncognitoOptions& options);

/// Helper: the global recoding induced by cutting each taxonomy at the
/// given depth (depth is clamped to each taxonomy's height).
GlobalRecoding RecodingAtDepths(const std::vector<int>& qi_attrs,
                                const std::vector<const Taxonomy*>& taxonomies,
                                const std::vector<int>& depths);

}  // namespace pgpub
