#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/parallel/thread_pool.h"
#include "common/result.h"
#include "core/columnar/qi_index.h"
#include "generalize/qi_groups.h"
#include "hierarchy/recoding.h"
#include "hierarchy/taxonomy.h"
#include "table/table.h"

namespace pgpub {

/// Options for TopDownSpecializer.
struct TdsOptions {
  /// Minimum QI-group size maintained throughout (Property G2).
  int k = 2;

  /// Upper bound on the number of specialization steps (safety valve; the
  /// algorithm normally stops when no valid specialization remains).
  int max_specializations = std::numeric_limits<int>::max();

  /// Optional extra per-group requirement (e.g. (c,ℓ)-diversity). Checked
  /// on every group produced by a candidate specialization; a candidate
  /// violating it is invalid.
  const GroupConstraint* constraint = nullptr;

  /// Attribute whose per-group histogram feeds `constraint` (typically the
  /// sensitive attribute). Required when `constraint` is set.
  int constraint_attr = -1;

  /// Specialization scoring. true (default): significance-debiased
  /// information gain plus a stratum-balancing bonus (see DESIGN.md §5) —
  /// deterministic given the table and robust to perturbation noise.
  /// false: the classic Fung et al. InfoGain/(AnonyLoss+1) greedy, kept
  /// for the `ablation_design` bench.
  bool balance_aware = true;

  /// Optional worker pool for candidate-split scoring (nullptr = serial).
  /// Each dirty candidate is re-scored independently and the winner is
  /// still selected serially with the key tie-break, so the chosen
  /// specialization sequence — and therefore the recoding — is
  /// bit-identical at every thread count.
  ThreadPool* pool = nullptr;

  /// Ignored: TDS scores each QI group from its rows once and needs no QI
  /// index (DESIGN.md §15). Kept only because perfbench still assigns it;
  /// slated for removal with the next benchmark change (ROADMAP).
  const columnar::QiIndex* qi_index = nullptr;
};

/// \brief Top-Down Specialization (Fung, Wang & Yu, ICDE'05) producing a
/// k-anonymous global recoding — the algorithm the paper adapts for
/// Phase 2 of perturbed generalization.
///
/// Starts from the fully generalized table (every QI attribute collapsed to
/// one value) and greedily applies the valid specialization with the best
/// score = InfoGain / (AnonyLoss + 1), until none remains. A specialization
/// replaces one generalized value of one attribute by its taxonomy
/// children.
///
/// The result satisfies G1 (same cardinality, tuple-wise generalization),
/// G2 (k-anonymity) and G3 (global recoding) from Section IV of the paper.
class TopDownSpecializer {
 public:
  /// `taxonomies` is parallel to `qi_attrs`, one taxonomy per attribute
  /// (Run() rejects a null entry). `class_labels` (one label in
  /// [0, num_classes) per row) drives the information-gain score.
  TopDownSpecializer(const Table& table, std::vector<int> qi_attrs,
                     std::vector<const Taxonomy*> taxonomies,
                     std::vector<int32_t> class_labels, int num_classes,
                     TdsOptions options);

  /// Runs the search. Fails with InvalidArgument when k < 1, when the
  /// taxonomy count differs from the QI count, or a taxonomy is null or
  /// does not cover its attribute's domain, and with
  /// FailedPrecondition when even the fully generalized table violates
  /// k-anonymity (n < k) or the constraint.
  [[nodiscard]] Result<GlobalRecoding> Run();

  /// Number of specializations applied by the last Run().
  int num_specializations() const { return num_specializations_; }

 private:
  /// One group's share of the score of the candidate that splits the
  /// group's segment on one QI attribute. A group's rows and its segment
  /// on every attribute are fixed until Apply kills it, so the share is
  /// computed from the rows once, the first time Evaluate meets the group,
  /// and folded from here on every later Evaluate.
  struct Contribution {
    bool scored = false;
    bool valid = false;  ///< Every non-empty child passes k and constraint.
    int nonempty_children = 0;
    int64_t min_child = 0;  ///< Smallest non-empty child.
    double gain = 0.0;      ///< n_g·H(parent) − Σ n_c·H(c), in rows·bits.
    double child_sq = 0.0;  ///< Σ n_c².
  };

  struct Group {
    std::vector<uint32_t> rows;
    std::vector<int32_t> seg_lo;  ///< Per QI attr: start code of its segment.
    /// Per QI attr: this group's Contribution to that attribute's
    /// candidate. Written only by the Evaluate of the candidate owning
    /// (attr, seg_lo[attr]), so the parallel scoring needs no lock.
    /// Apply releases rows, seg_lo and contrib when the group dies.
    std::vector<Contribution> contrib;
    bool alive = true;

    int64_t size() const { return static_cast<int64_t>(rows.size()); }
  };

  /// What one Evaluate did: groups whose Contribution it computed from
  /// their rows, groups it folded from the cache, and the rows it read.
  struct EvalStats {
    uint64_t groups_scored = 0;
    uint64_t groups_reused = 0;
    uint64_t rows_scanned = 0;
  };

  struct Candidate {
    bool dirty = true;
    bool valid = false;
    double score = 0.0;
    int taxonomy_node = -1;  ///< Taxonomy node whose children it splits into.
  };

  static uint64_t CandidateKey(int attr_idx, int32_t lo) {
    return (static_cast<uint64_t>(attr_idx) << 32) |
           static_cast<uint32_t>(lo);
  }

  /// Alive groups currently carrying segment `lo` of QI attribute `i`.
  /// Returns a reference into segment_groups_ valid until the next Apply.
  const std::vector<int32_t>& GroupsOfSegment(int attr_idx, int32_t lo);

  /// (Re)computes a candidate's validity/score by folding, in segment
  /// order, the Contribution of every alive group carrying segment `lo` of
  /// QI attribute `attr_idx`; a group not yet scored on that attribute is
  /// scored from its rows first.
  EvalStats Evaluate(int attr_idx, int32_t lo, Candidate* cand);

  /// Applies a winning candidate; updates recoding, groups, and dirt.
  void Apply(int attr_idx, int32_t lo, const Candidate& cand);

  bool ConstraintOk(const std::vector<int64_t>& hist) const;

  int64_t GlobalMinGroupSize() const;

  const Table& table_;
  std::vector<int> qi_attrs_;
  std::vector<const Taxonomy*> taxonomies_;
  std::vector<int32_t> class_labels_;
  int num_classes_;
  TdsOptions options_;

  std::vector<AttributeRecoding> recodings_;
  std::vector<Group> groups_;
  /// Per QI attr: segment lo -> group ids (lazy-deleted).
  std::vector<std::unordered_map<int32_t, std::vector<int32_t>>>
      segment_groups_;
  std::unordered_map<uint64_t, Candidate> candidates_;
  /// Smallest alive group; read only by the classic (!balance_aware) score.
  int64_t global_min_cache_ = 0;
  int num_specializations_ = 0;
};

}  // namespace pgpub
