#include "generalize/tds.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>

#include "common/failpoint.h"
#include "common/math_util.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pgpub {

TopDownSpecializer::TopDownSpecializer(const Table& table,
                                       std::vector<int> qi_attrs,
                                       std::vector<const Taxonomy*> taxonomies,
                                       std::vector<int32_t> class_labels,
                                       int num_classes, TdsOptions options)
    : table_(table),
      qi_attrs_(std::move(qi_attrs)),
      taxonomies_(std::move(taxonomies)),
      class_labels_(std::move(class_labels)),
      num_classes_(num_classes),
      options_(options) {
  PGPUB_CHECK_EQ(class_labels_.size(), table_.num_rows());
  PGPUB_CHECK_GT(num_classes_, 0);
  if (options_.constraint != nullptr) {
    PGPUB_CHECK_GE(options_.constraint_attr, 0);
  }
}

bool TopDownSpecializer::ConstraintOk(
    const std::vector<int64_t>& hist) const {
  return options_.constraint == nullptr ||
         options_.constraint->Satisfied(hist);
}

namespace {

/// Unified specialization utility: debiased information gain per affected
/// row (bits), plus a balance bonus — the fraction of the affected
/// sum-of-squared group sizes the split removes, weighted so that a
/// perfectly halving no-signal split (fraction 1/2) is worth 0.025 bits.
/// Early, genuinely informative splits dominate; in the end-game the
/// balance term takes over, which equalizes strata and maximizes the
/// effective sample size of the published table.
double CombinedScore(double debiased_gain_per_row, double ss_reduction,
                     double affected_ss) {
  const double balance =
      affected_ss > 0.0 ? ss_reduction / affected_ss : 0.0;
  return std::max(0.0, debiased_gain_per_row) + 0.05 * balance;
}

}  // namespace

int64_t TopDownSpecializer::GlobalMinGroupSize() const {
  int64_t m = std::numeric_limits<int64_t>::max();
  for (const Group& g : groups_) {
    if (g.alive) m = std::min<int64_t>(m, g.size());
  }
  return m == std::numeric_limits<int64_t>::max() ? 0 : m;
}

const std::vector<int32_t>& TopDownSpecializer::GroupsOfSegment(int attr_idx,
                                                                int32_t lo) {
  static const std::vector<int32_t> kEmpty;
  auto it = segment_groups_[attr_idx].find(lo);
  if (it == segment_groups_[attr_idx].end()) return kEmpty;
  std::vector<int32_t>& list = it->second;
  // Filter lazily deleted entries in place; return the compacted list by
  // reference so candidate evaluation does not copy it.
  size_t w = 0;
  for (int32_t gid : list) {
    if (groups_[gid].alive && groups_[gid].seg_lo[attr_idx] == lo) {
      list[w++] = gid;
    }
  }
  list.resize(w);
  return list;
}

TopDownSpecializer::EvalStats TopDownSpecializer::Evaluate(int attr_idx,
                                                           int32_t lo,
                                                           Candidate* cand) {
  EvalStats stats;
  cand->dirty = false;
  cand->valid = false;
  cand->taxonomy_node = -1;

  const AttributeRecoding& rec = recodings_[attr_idx];
  const int32_t gen = rec.GenOf(lo);
  const Interval s = rec.GenInterval(gen);
  PGPUB_CHECK_EQ(s.lo, lo);
  if (s.IsSingleton()) return stats;  // nothing to specialize

  const std::vector<int32_t>& gids = GroupsOfSegment(attr_idx, lo);
  if (gids.empty()) return stats;  // segment carries no rows; splitting is moot

  const int attr = qi_attrs_[attr_idx];
  const Taxonomy* tax = taxonomies_[attr_idx];
  const int32_t cons_attr = options_.constraint_attr;
  const int32_t cons_dom =
      options_.constraint != nullptr ? table_.domain(cons_attr).size() : 0;

  const int node_id = tax->FindNode(s);
  PGPUB_CHECK_GE(node_id, 0)
      << "segment does not match a taxonomy node on attribute "
      << table_.schema().attribute(attr).name;
  const TaxonomyNode& node = tax->node(node_id);
  PGPUB_CHECK(!node.children.empty());
  const size_t n_children = node.children.size();

  // Map code -> child rank within this node.
  std::vector<int32_t> code_to_child(s.width());
  for (size_t ci = 0; ci < n_children; ++ci) {
    const Interval cr = tax->node(node.children[ci]).range;
    for (int32_t c = cr.lo; c <= cr.hi; ++c) {
      code_to_child[c - s.lo] = static_cast<int32_t>(ci);
    }
  }

  std::vector<double> parent_class(num_classes_);
  std::vector<std::vector<double>> child_class(
      n_children, std::vector<double>(num_classes_));
  std::vector<int64_t> child_count(n_children);
  std::vector<std::vector<int64_t>> child_cons;
  if (options_.constraint != nullptr) {
    child_cons.assign(n_children, std::vector<int64_t>(cons_dom));
  }

  // Scores one group from its rows: its Contribution to this candidate.
  auto score_rows = [&](const Group& g) {
    std::fill(parent_class.begin(), parent_class.end(), 0.0);
    std::fill(child_count.begin(), child_count.end(), 0);
    for (auto& v : child_class) std::fill(v.begin(), v.end(), 0.0);
    for (auto& v : child_cons) std::fill(v.begin(), v.end(), 0);

    for (uint32_t r : g.rows) {
      const int32_t child = code_to_child[table_.value(r, attr) - s.lo];
      const int32_t cls = class_labels_[r];
      parent_class[cls] += 1.0;
      child_class[child][cls] += 1.0;
      child_count[child]++;
      if (options_.constraint != nullptr) {
        child_cons[child][table_.value(r, cons_attr)]++;
      }
    }

    Contribution c;
    c.scored = true;
    c.min_child = std::numeric_limits<int64_t>::max();
    double child_entropy_rows = 0.0;
    for (size_t ci = 0; ci < n_children; ++ci) {
      if (child_count[ci] == 0) continue;
      ++c.nonempty_children;
      if (child_count[ci] < options_.k) return c;
      if (options_.constraint != nullptr &&
          !options_.constraint->Satisfied(child_cons[ci])) {
        return c;
      }
      c.min_child = std::min<int64_t>(c.min_child, child_count[ci]);
      c.child_sq += static_cast<double>(child_count[ci]) *
                    static_cast<double>(child_count[ci]);
      child_entropy_rows += static_cast<double>(child_count[ci]) *
                            EntropyFromCounts(child_class[ci]);
    }
    c.valid = true;
    c.gain = static_cast<double>(g.size()) * EntropyFromCounts(parent_class) -
             child_entropy_rows;
    return c;
  };

  // Fold the groups' contributions in segment order — the same doubles
  // summed in the same order as a full row scan, so scores are
  // bit-identical whether a term was just computed or read from cache.
  double gain = 0.0;
  double bias = 0.0;
  double ss_reduction = 0.0;
  double affected_ss = 0.0;
  int64_t affected_rows = 0;
  int64_t min_new = std::numeric_limits<int64_t>::max();
  for (int32_t gid : gids) {
    Group& g = groups_[gid];
    Contribution& c = g.contrib[attr_idx];
    if (c.scored) {
      ++stats.groups_reused;
    } else {
      c = score_rows(g);
      ++stats.groups_scored;
      stats.rows_scanned += g.rows.size();
    }
    if (!c.valid) return stats;
    min_new = std::min(min_new, c.min_child);
    const double n_g = static_cast<double>(g.size());
    affected_rows += g.size();
    affected_ss += n_g * n_g;
    ss_reduction += n_g * n_g - c.child_sq;
    gain += c.gain;
    // Chi-square bias of the empirical entropy gain: under the no-signal
    // null, 2 ln(2) n ΔH ~ chi^2 with (C-1)(m-1) dof, so the expected
    // spurious gain is (C-1)(m-1)/(2 ln 2) rows·bits per group.
    bias += (c.nonempty_children - 1) * (num_classes_ - 1) /
            (2.0 * std::log(2.0));
  }

  cand->valid = true;
  cand->taxonomy_node = node_id;
  if (options_.balance_aware) {
    // Significance-debiased gain (chi-square null correction, x3 margin).
    const double gain_per_row =
        affected_rows > 0
            ? (gain - 3.0 * bias) / static_cast<double>(affected_rows)
            : 0.0;
    cand->score = CombinedScore(gain_per_row, ss_reduction, affected_ss);
  } else {
    const int64_t loss = std::max<int64_t>(0, global_min_cache_ - min_new);
    cand->score = gain / static_cast<double>(loss + 1);
  }
  return stats;
}

void TopDownSpecializer::Apply(int attr_idx, int32_t lo,
                               const Candidate& cand) {
  const AttributeRecoding& rec = recodings_[attr_idx];
  const Interval s = rec.GenInterval(rec.GenOf(lo));
  const Taxonomy* tax = taxonomies_[attr_idx];
  std::vector<Interval> children;
  for (int c : tax->node(cand.taxonomy_node).children) {
    children.push_back(tax->node(c).range);
  }
  PGPUB_CHECK_GE(children.size(), 2u);

  // Update the recoding.
  for (size_t i = 1; i < children.size(); ++i) {
    recodings_[attr_idx].SplitAt(children[i].lo);
  }

  // Map code offset -> child rank.
  std::vector<int32_t> code_to_child(s.width());
  for (size_t ci = 0; ci < children.size(); ++ci) {
    for (int32_t c = children[ci].lo; c <= children[ci].hi; ++c) {
      code_to_child[c - s.lo] = static_cast<int32_t>(ci);
    }
  }

  // Copy the id list: the map entry is erased next.
  const std::vector<int32_t> affected = GroupsOfSegment(attr_idx, lo);
  segment_groups_[attr_idx].erase(lo);
  const int attr = qi_attrs_[attr_idx];

  for (int32_t gid : affected) {
    // Detach the old group's state before growing groups_ — push_back may
    // reallocate the vector and would invalidate any held reference.
    // A dead group keeps nothing: GroupsOfSegment tests `alive` before it
    // reads seg_lo, and no Evaluate reads a dead group's contributions.
    groups_[gid].alive = false;
    const std::vector<uint32_t> old_rows = std::move(groups_[gid].rows);
    const std::vector<int32_t> old_seg = std::move(groups_[gid].seg_lo);
    groups_[gid].contrib = std::vector<Contribution>();

    // Bucket rows by child.
    std::vector<std::vector<uint32_t>> buckets(children.size());
    for (uint32_t r : old_rows) {
      buckets[code_to_child[table_.value(r, attr) - s.lo]].push_back(r);
    }
    for (size_t ci = 0; ci < children.size(); ++ci) {
      if (buckets[ci].empty()) continue;
      Group ng;
      ng.rows = std::move(buckets[ci]);
      ng.seg_lo = old_seg;
      ng.seg_lo[attr_idx] = children[ci].lo;
      ng.contrib.resize(qi_attrs_.size());
      const int32_t new_gid = static_cast<int32_t>(groups_.size());
      groups_.push_back(std::move(ng));
      for (size_t j = 0; j < qi_attrs_.size(); ++j) {
        segment_groups_[j][groups_[new_gid].seg_lo[j]].push_back(new_gid);
      }
    }

    // Every candidate touching this (old) group must be re-scored.
    for (size_t j = 0; j < qi_attrs_.size(); ++j) {
      if (static_cast<int>(j) == attr_idx) continue;
      auto it = candidates_.find(
          CandidateKey(static_cast<int>(j), old_seg[j]));
      if (it != candidates_.end()) it->second.dirty = true;
    }
  }

  // Candidate bookkeeping on the split attribute.
  candidates_.erase(CandidateKey(attr_idx, lo));
  for (const Interval& c : children) {
    candidates_[CandidateKey(attr_idx, c.lo)] = Candidate{};
  }
  // The global minimum group size may have changed: every score that used
  // AnonyLoss is stale. Rather than recompute all, we accept slightly stale
  // scores for unaffected candidates (validity never depends on the global
  // min, so correctness is unaffected; this is the usual TDS greedy
  // heuristic trade-off).
}

Result<GlobalRecoding> TopDownSpecializer::Run() {
  PGPUB_FAILPOINT(failpoints::kPublishGeneralizeTds);
  if (options_.k < 1) {
    return Status::InvalidArgument("k must be >= 1, got " +
                                   std::to_string(options_.k));
  }
  const size_t n = table_.num_rows();
  if (n < static_cast<size_t>(options_.k)) {
    return Status::FailedPrecondition(
        "table has fewer rows than k; no k-anonymous publication exists");
  }
  if (taxonomies_.size() != qi_attrs_.size()) {
    return Status::InvalidArgument(
        "need one taxonomy per QI attribute, got " +
        std::to_string(taxonomies_.size()) + " for " +
        std::to_string(qi_attrs_.size()));
  }
  for (size_t i = 0; i < qi_attrs_.size(); ++i) {
    const std::string& name = table_.schema().attribute(qi_attrs_[i]).name;
    if (taxonomies_[i] == nullptr) {
      return Status::InvalidArgument("no taxonomy for QI attribute " + name);
    }
    if (taxonomies_[i]->domain_size() != table_.domain(qi_attrs_[i]).size()) {
      return Status::InvalidArgument(
          "taxonomy domain size mismatch on attribute " + name);
    }
  }

  // Reset state.
  num_specializations_ = 0;
  groups_.clear();
  candidates_.clear();
  segment_groups_.assign(qi_attrs_.size(), {});
  recodings_.clear();
  for (int a : qi_attrs_) {
    recodings_.push_back(AttributeRecoding::Single(table_.domain(a).size()));
  }

  Group root;
  root.rows.resize(n);
  for (size_t r = 0; r < n; ++r) root.rows[r] = static_cast<uint32_t>(r);
  root.seg_lo.assign(qi_attrs_.size(), 0);
  root.contrib.resize(qi_attrs_.size());
  groups_.push_back(std::move(root));
  for (size_t j = 0; j < qi_attrs_.size(); ++j) {
    segment_groups_[j][0].push_back(0);
  }

  if (options_.constraint != nullptr) {
    std::vector<int64_t> hist(table_.domain(options_.constraint_attr).size(),
                              0);
    for (size_t r = 0; r < n; ++r) {
      hist[table_.value(r, options_.constraint_attr)]++;
    }
    if (!options_.constraint->Satisfied(hist)) {
      return Status::FailedPrecondition(
          "the whole table violates constraint " +
          options_.constraint->name() +
          "; no publication satisfies it under global recoding");
    }
  }

  for (size_t j = 0; j < qi_attrs_.size(); ++j) {
    candidates_[CandidateKey(static_cast<int>(j), 0)] = Candidate{};
  }

  uint64_t rows_scanned = 0;
  while (num_specializations_ < options_.max_specializations) {
    obs::ScopedSpan round_span("tds.round");
    // Only the classic score reads the global minimum group size.
    if (!options_.balance_aware) global_min_cache_ = GlobalMinGroupSize();
    // Re-evaluate dirty candidates, fanning the scoring out over the pool
    // when one is given. Each Evaluate touches only its own Candidate, its
    // own segment_groups_ bucket and its own attribute's Contribution slot
    // of the groups in that bucket (distinct (attr, lo) per candidate, and
    // a group lies in one segment per attribute); everything else it
    // reads — group rows and segments, recodings_, table_, class_labels_,
    // global_min_cache_ — is frozen during the pass.
    std::vector<std::pair<uint64_t, Candidate*>> dirty;
    for (auto& [key, cand] : candidates_) {
      if (cand.dirty) dirty.emplace_back(key, &cand);
    }
    std::vector<EvalStats> stats(dirty.size());
    RETURN_IF_ERROR(ParallelFor(
        options_.pool, IndexRange(0, dirty.size()), /*grain=*/1,
        [&](size_t begin, size_t end) -> Status {
          for (size_t i = begin; i < end; ++i) {
            stats[i] = Evaluate(
                static_cast<int>(dirty[i].first >> 32),
                static_cast<int32_t>(dirty[i].first & 0xffffffffu),
                dirty[i].second);
          }
          return Status::OK();
        }));
    EvalStats totals;
    for (const EvalStats& st : stats) {
      totals.groups_scored += st.groups_scored;
      totals.groups_reused += st.groups_reused;
      totals.rows_scanned += st.rows_scanned;
    }
    rows_scanned += totals.rows_scanned;
    round_span.Attr("dirty", static_cast<uint64_t>(dirty.size()))
        .Attr("groups_scored", totals.groups_scored)
        .Attr("groups_reused", totals.groups_reused)
        .Attr("rows_scanned", totals.rows_scanned);
    // Pick the best valid candidate (serial — the tie-break is the
    // determinism anchor).
    uint64_t best_key = 0;
    double best_score = -1.0;
    bool found = false;
    for (auto& [key, cand] : candidates_) {
      if (!cand.valid) continue;
      // Exact compare is intentional: equal cached scores (same bits) tie-
      // break on key so specialization order is deterministic across runs.
      if (!found || cand.score > best_score ||
          (cand.score == best_score &&  // pgpub-lint: allow(float-equality)
           key < best_key)) {
        best_key = key;
        best_score = cand.score;
        found = true;
      }
    }
    if (!found) break;
    Candidate chosen = candidates_[best_key];
    Apply(static_cast<int>(best_key >> 32),
          static_cast<int32_t>(best_key & 0xffffffffu), chosen);
    ++num_specializations_;
  }

  obs::MetricsRegistry::Global()
      .GetCounter("tds.specializations")
      ->Add(static_cast<uint64_t>(num_specializations_));
  obs::MetricsRegistry::Global()
      .GetCounter("tds.rows_scanned")
      ->Add(rows_scanned);
  PGPUB_LOG_DEBUG("tds.done")
      .Field("specializations", num_specializations_)
      .Field("groups", groups_.size());

  GlobalRecoding out;
  out.qi_attrs = qi_attrs_;
  out.per_attr = recodings_;
  return out;
}

}  // namespace pgpub
