#include "generalize/incognito.h"

#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <utility>

#include "common/failpoint.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pgpub {

GlobalRecoding RecodingAtDepths(
    const std::vector<int>& qi_attrs,
    const std::vector<const Taxonomy*>& taxonomies,
    const std::vector<int>& depths) {
  PGPUB_CHECK_EQ(qi_attrs.size(), taxonomies.size());
  PGPUB_CHECK_EQ(qi_attrs.size(), depths.size());
  GlobalRecoding out;
  out.qi_attrs = qi_attrs;
  for (size_t i = 0; i < qi_attrs.size(); ++i) {
    const Taxonomy* tax = taxonomies[i];
    PGPUB_CHECK(tax != nullptr) << "Incognito requires a taxonomy per attr";
    const int depth = std::min(depths[i], tax->height());
    std::vector<int> cut = tax->CutAtDepth(depth);
    std::vector<int32_t> starts;
    starts.reserve(cut.size());
    for (int node : cut) starts.push_back(tax->node(node).range.lo);
    out.per_attr.push_back(
        AttributeRecoding::FromStarts(tax->domain_size(), std::move(starts))
            // Starts come from a valid taxonomy cut; cannot fail.
            // pgpub-lint: allow(unchecked-result)
            .ValueOrDie());
  }
  return out;
}

Result<GlobalRecoding> IncognitoSearch(
    const Table& table, const std::vector<int>& qi_attrs,
    const std::vector<const Taxonomy*>& taxonomies,
    const IncognitoOptions& options) {
  PGPUB_FAILPOINT(failpoints::kPublishGeneralizeIncognito);
  if (qi_attrs.size() != taxonomies.size()) {
    return Status::InvalidArgument("qi_attrs/taxonomies size mismatch");
  }
  const size_t d = qi_attrs.size();
  if (d == 0) return Status::InvalidArgument("no QI attributes");
  if (d > columnar::kMaxLatticeAttrs) {
    return Status::InvalidArgument(
        "Incognito supports at most 64 QI attributes; use "
        "TopDownSpecializer");
  }
  for (size_t i = 0; i < d; ++i) {
    if (taxonomies[i] == nullptr) {
      return Status::InvalidArgument(
          "Incognito requires a taxonomy for every QI attribute");
    }
    if (taxonomies[i]->domain_size() != table.domain(qi_attrs[i]).size()) {
      return Status::InvalidArgument("taxonomy domain size mismatch");
    }
  }
  if (options.k < 1) {
    return Status::InvalidArgument("k must be >= 1, got " +
                                   std::to_string(options.k));
  }
  if (table.num_rows() < static_cast<size_t>(options.k)) {
    return Status::FailedPrecondition(
        "table has fewer rows than k; no k-anonymous publication exists");
  }

  // A lattice node is a vector of depths 0..height per attr, identified
  // by its mixed-radix id sum(depth[i] * stride[i]); the size cap keeps
  // the flat per-node arrays below small.
  std::vector<size_t> radix(d);
  std::vector<size_t> stride(d);
  size_t lattice_size = 1;
  for (size_t i = 0; i < d; ++i) {
    radix[i] = static_cast<size_t>(taxonomies[i]->height()) + 1;
    stride[i] = lattice_size;
    lattice_size *= radix[i];
    if (lattice_size > columnar::kMaxLatticeNodes) {
      return Status::InvalidArgument(
          "generalization lattice too large for Incognito search; "
          "use TopDownSpecializer");
    }
  }
  auto depth_of = [&](size_t node, size_t i) {
    return node / stride[i] % radix[i];
  };
  auto depths_of = [&](size_t node) {
    std::vector<int> depths(d);
    for (size_t i = 0; i < d; ++i) {
      depths[i] = static_cast<int>(depth_of(node, i));
    }
    return depths;
  };

  // Build the base frequency set and the per-(attr, depth) remap tables
  // and NCP sums once (DESIGN.md §15); every check below is then a fold
  // over distinct tuples instead of a rescan of rows.
  std::unique_ptr<columnar::QiIndex> owned_index;
  const columnar::QiIndex* index = options.qi_index;
  if (index == nullptr || index->qi_attrs() != qi_attrs) {
    owned_index = std::make_unique<columnar::QiIndex>(
        columnar::QiIndex::Build(table, qi_attrs));
    index = owned_index.get();
  }
  const columnar::LatticeCounter counter(index, taxonomies);

  enum Verdict : uint8_t {
    kUnknown,
    kPending,   // a candidate with no parent fold assigned yet
    kAssigned,  // a candidate some parent fold will decide
    kAnonymous,
    kNotAnonymous
  };
  std::vector<uint8_t> verdict(lattice_size, kUnknown);
  // Incognito's a-priori candidate rule: a node needs a fold only when
  // every direct generalization (one attr one level shallower) is
  // recorded k-anonymous. Otherwise monotonicity decides it: that
  // generalization has a group of fewer than k rows, and refining the
  // group keeps it below k. (A child of a level node never has an
  // unrecorded generalization: child - e_j is also a child of
  // node - e_j, which is k-anonymous and so was on the level before.)
  auto parents_anonymous = [&](size_t node) {
    for (size_t i = 0; i < d; ++i) {
      if (depth_of(node, i) > 0 && verdict[node - stride[i]] != kAnonymous) {
        return false;
      }
    }
    return true;
  };
  // The level node's children still waiting for a parent, as a mask over
  // the attribute each one specializes.
  auto pending_children = [&](size_t node) {
    uint64_t mask = 0;
    for (size_t i = 0; i < d; ++i) {
      if (depth_of(node, i) + 1 < radix[i] &&
          verdict[node + stride[i]] == kPending) {
        mask |= uint64_t{1} << i;
      }
    }
    return mask;
  };

  // BFS from the root (all depths 0 = most general). A node is *minimal*
  // k-anonymous when it is k-anonymous and none of its children (one attr
  // one level deeper) is. Every edge goes from level L (= depth sum) to
  // level L+1, so the FIFO BFS is exactly a level-order sweep, which is
  // how it runs: decide all of a level's children at once, then walk the
  // level in order. The root is one group of n >= k rows: anonymous
  // without a fold.
  verdict[0] = kAnonymous;
  std::vector<size_t> level = {0};

  constexpr size_t kNoNode = SIZE_MAX;
  size_t best_node = kNoNode;
  double best_ncp = 2.0;
  uint64_t nodes_examined = 0;
  uint64_t children_pruned = 0;
  uint64_t minimal_nodes = 0;
  uint64_t anonymity_checks = 1;
  uint64_t checks_implied = 0;
  uint64_t parent_folds = 0;

  for (uint64_t depth_sum = 0; !level.empty(); ++depth_sum) {
    obs::ScopedSpan span("incognito.level");
    // Phase A: the level's children in first-encounter order. Each is
    // either a fold candidate or implied non-anonymous.
    std::vector<size_t> candidates;
    uint64_t implied = 0;
    for (size_t node : level) {
      for (size_t i = 0; i < d; ++i) {
        if (depth_of(node, i) + 1 == radix[i]) continue;
        const size_t child = node + stride[i];
        if (verdict[child] != kUnknown) continue;
        if (parents_anonymous(child)) {
          verdict[child] = kPending;
          candidates.push_back(child);
        } else {
          verdict[child] = kNotAnonymous;
          ++implied;
        }
      }
    }

    // Phase B1: cover the candidates by parents, serially. Every direct
    // generalization of a candidate is a k-anonymous level node, so any of
    // them can decide it by refining its own cells. Greedy: take the level
    // node with the most uncovered candidates, the earliest in level order
    // on ties. Coverage only shrinks, so a heap of possibly stale counts
    // finds it: an entry whose count is still current is the maximum.
    struct Parent {
      size_t node;
      uint64_t children;  // attribute mask of the candidates it decides
    };
    std::vector<Parent> parents;
    {
      using Entry = std::pair<int, size_t>;  // (count, -level position)
      std::priority_queue<Entry> heap;
      for (size_t pos = 0; pos < level.size(); ++pos) {
        const int count = __builtin_popcountll(pending_children(level[pos]));
        if (count > 0) heap.emplace(count, SIZE_MAX - pos);
      }
      while (!heap.empty()) {
        const auto [count, key] = heap.top();
        heap.pop();
        const size_t node = level[SIZE_MAX - key];
        const uint64_t mask = pending_children(node);
        const int current = __builtin_popcountll(mask);
        if (current < count) {
          if (current > 0) heap.emplace(current, key);
          continue;
        }
        for (size_t i = 0; i < d; ++i) {
          if (mask >> i & 1) verdict[node + stride[i]] = kAssigned;
        }
        parents.push_back({node, mask});
      }
    }

    // Phase B2: one fold per parent decides its candidates, fanned out
    // over the pool when one is given; each candidate has one parent, so
    // each fold writes only its own verdict slots. The anonymous
    // candidates, in first-encounter order, are the next level.
    RETURN_IF_ERROR(ParallelFor(
        options.pool, IndexRange(0, parents.size()), /*grain=*/1,
        [&](size_t begin, size_t end) -> Status {
          for (size_t p = begin; p < end; ++p) {
            const Parent& parent = parents[p];
            const uint64_t anonymous = counter.AnonymousChildren(
                depths_of(parent.node), parent.children, options.k);
            for (size_t i = 0; i < d; ++i) {
              if ((parent.children >> i & 1) == 0) continue;
              verdict[parent.node + stride[i]] =
                  (anonymous >> i & 1) != 0 ? kAnonymous : kNotAnonymous;
            }
          }
          return Status::OK();
        }));
    std::vector<size_t> next_level;
    for (size_t node : candidates) {
      if (verdict[node] == kAnonymous) next_level.push_back(node);
    }

    // Phase C: walk the level; nodes with no anonymous child are minimal.
    // Each is scored from the per-(attr, depth) NCP sums and the best is
    // picked in level order with a strict `<`, so the first of equal NCPs
    // wins.
    uint64_t minimal = 0;
    for (size_t node : level) {
      ++nodes_examined;
      bool has_anonymous_child = false;
      for (size_t i = 0; i < d; ++i) {
        if (depth_of(node, i) + 1 == radix[i]) continue;
        if (verdict[node + stride[i]] == kAnonymous) {
          has_anonymous_child = true;
        } else {
          // Non-anonymous child: its entire sub-lattice is cut off here.
          ++children_pruned;
        }
      }
      if (has_anonymous_child) continue;
      ++minimal;
      const double ncp = counter.NcpAtDepths(depths_of(node));
      if (best_node == kNoNode || ncp < best_ncp) {
        best_ncp = ncp;
        best_node = node;
      }
    }

    anonymity_checks += candidates.size();
    checks_implied += implied;
    minimal_nodes += minimal;
    parent_folds += parents.size();
    span.Attr("level", depth_sum)
        .Attr("candidates", static_cast<uint64_t>(candidates.size()) + implied)
        .Attr("checked", static_cast<uint64_t>(candidates.size()))
        .Attr("parents", static_cast<uint64_t>(parents.size()))
        .Attr("implied", implied)
        .Attr("minimal", minimal);
    level = std::move(next_level);
  }
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.GetCounter("incognito.nodes_examined")->Add(nodes_examined);
  metrics.GetCounter("incognito.children_pruned")->Add(children_pruned);
  metrics.GetCounter("incognito.minimal_nodes")->Add(minimal_nodes);
  metrics.GetCounter("incognito.anonymity_checks")->Add(anonymity_checks);
  metrics.GetCounter("incognito.checks_implied")->Add(checks_implied);
  metrics.GetCounter("incognito.parent_folds")->Add(parent_folds);
  PGPUB_LOG_DEBUG("incognito.done")
      .Field("nodes_examined", nodes_examined)
      .Field("children_pruned", children_pruned)
      .Field("minimal_nodes", minimal_nodes)
      .Field("anonymity_checks", anonymity_checks)
      .Field("checks_implied", checks_implied)
      .Field("parent_folds", parent_folds)
      .Field("best_ncp", best_ncp);
  if (best_node == kNoNode) {
    return Status::Internal(
        "Incognito explored the lattice without finding a minimal "
        "k-anonymous node");
  }
  return RecodingAtDepths(qi_attrs, taxonomies, depths_of(best_node));
}

}  // namespace pgpub
