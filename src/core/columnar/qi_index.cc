#include "core/columnar/qi_index.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/logging.h"

namespace pgpub::columnar {
namespace {

/// True when the mixed-radix signature over `qi_attrs` domains fits u64,
/// enabling the single-pass build. `*radix` gets the product on success.
bool RadixFits(const Table& table, const std::vector<int>& qi_attrs,
               uint64_t* radix) {
  uint64_t product = 1;
  for (int attr : qi_attrs) {
    const auto width = static_cast<uint64_t>(table.domain(attr).size());
    if (width == 0 || __builtin_mul_overflow(product, width, &product)) {
      return false;
    }
  }
  *radix = product;
  return true;
}

}  // namespace

QiIndex QiIndex::Build(const Table& table, const std::vector<int>& qi_attrs) {
  QiIndex out;
  out.qi_attrs_ = qi_attrs;
  const size_t n = table.num_rows();
  const size_t d = qi_attrs.size();
  out.codes_.resize(d);
  out.row_to_tuple_.resize(n);

  uint64_t radix = 0;
  if (d > 0 && RadixFits(table, qi_attrs, &radix)) {
    // Single-pass: mixed-radix signature -> first-encounter tuple id.
    std::unordered_map<uint64_t, int32_t> ids;
    ids.reserve(n);
    for (size_t r = 0; r < n; ++r) {
      uint64_t sig = 0;
      for (size_t a = 0; a < d; ++a) {
        const int attr = qi_attrs[a];
        sig = sig * static_cast<uint64_t>(table.domain(attr).size()) +
              static_cast<uint64_t>(table.value(r, attr));
      }
      auto [it, inserted] =
          ids.emplace(sig, static_cast<int32_t>(out.weights_.size()));
      if (inserted) {
        for (size_t a = 0; a < d; ++a) {
          out.codes_[a].push_back(table.value(r, qi_attrs[a]));
        }
        out.weights_.push_back(0);
      }
      out.row_to_tuple_[r] = it->second;
      out.weights_[it->second]++;
    }
    return out;
  }

  // Multi-pass incremental refinement for huge combined domains: after
  // pass a, row_to_tuple_ distinguishes rows on the first a+1 attributes.
  // Keys (partial id, code) always fit u64 since both factors are < 2^32.
  std::vector<int32_t> ids(n, 0);
  size_t num_ids = n == 0 ? 0 : 1;
  for (size_t a = 0; a < d; ++a) {
    const int attr = qi_attrs[a];
    const auto width = static_cast<uint64_t>(table.domain(attr).size());
    std::unordered_map<uint64_t, int32_t> refine;
    refine.reserve(num_ids);
    std::vector<int32_t> next(n);
    size_t next_count = 0;
    for (size_t r = 0; r < n; ++r) {
      const uint64_t key = static_cast<uint64_t>(ids[r]) * width +
                           static_cast<uint64_t>(table.value(r, attr));
      auto [it, inserted] =
          refine.emplace(key, static_cast<int32_t>(next_count));
      if (inserted) ++next_count;
      next[r] = it->second;
    }
    ids.swap(next);
    num_ids = next_count;
  }
  out.weights_.assign(num_ids, 0);
  for (size_t a = 0; a < d; ++a) out.codes_[a].resize(num_ids);
  std::vector<bool> seen(num_ids, false);
  for (size_t r = 0; r < n; ++r) {
    const int32_t t = ids[r];
    out.row_to_tuple_[r] = t;
    out.weights_[t]++;
    if (!seen[t]) {
      seen[t] = true;
      for (size_t a = 0; a < d; ++a) {
        out.codes_[a][t] = table.value(r, qi_attrs[a]);
      }
    }
  }
  return out;
}

LatticeCounter::LatticeCounter(const QiIndex* index,
                               std::vector<const Taxonomy*> taxonomies)
    : index_(index) {
  PGPUB_CHECK(index_ != nullptr);
  const size_t d = index_->qi_attrs().size();
  PGPUB_CHECK_EQ(taxonomies.size(), d);
  remap_.resize(d);
  num_intervals_.resize(d);
  for (size_t a = 0; a < d; ++a) {
    const Taxonomy* tax = taxonomies[a];
    PGPUB_CHECK(tax != nullptr);
    const int height = tax->height();
    remap_[a].resize(height + 1);
    num_intervals_[a].resize(height + 1);
    for (int depth = 0; depth <= height; ++depth) {
      const std::vector<int> cut = tax->CutAtDepth(depth);
      std::vector<int32_t>& codes = remap_[a][depth];
      codes.resize(tax->domain_size());
      for (size_t rank = 0; rank < cut.size(); ++rank) {
        const Interval& range = tax->node(cut[rank]).range;
        for (int32_t c = range.lo; c <= range.hi; ++c) {
          codes[c] = static_cast<int32_t>(rank);
        }
      }
      num_intervals_[a][depth] = static_cast<int32_t>(cut.size());
    }
  }
}

bool LatticeCounter::IsKAnonymousAtDepths(const std::vector<int>& depths,
                                          int k) const {
  const size_t d = remap_.size();
  PGPUB_CHECK_EQ(depths.size(), d);
  // One scratch per thread, reused by every fold that thread runs: after
  // warm-up a fold allocates nothing, and concurrent folds never share.
  thread_local Phase2Scratch scratch;

  // Resolve each attribute's remap (depths clamp like RecodingAtDepths)
  // and the mixed-radix cell strides over interval ranks.
  const int32_t* maps[kMaxLatticeAttrs];
  uint64_t widths[kMaxLatticeAttrs];
  uint64_t strides[kMaxLatticeAttrs];
  PGPUB_CHECK_LE(d, kMaxLatticeAttrs);
  uint64_t cells = 1;
  bool cells_fit = true;
  for (size_t a = d; a-- > 0;) {
    const int height = static_cast<int>(remap_[a].size()) - 1;
    const int depth = std::min(depths[a], height);
    maps[a] = remap_[a][depth].data();
    widths[a] = static_cast<uint64_t>(num_intervals_[a][depth]);
    strides[a] = cells;
    cells_fit = cells_fit && !__builtin_mul_overflow(cells, widths[a], &cells);
  }

  const size_t m = index_->num_tuples();
  const std::vector<int64_t>& weights = index_->weights();
  if (!cells_fit) {
    // The cell key overflows u64: label tuples one attribute at a time,
    // as QiIndex::Build's multi-pass branch labels rows. A key (label,
    // rank) always fits u64 since both factors are < 2^32, and the final
    // labels number at most m, so they count densely.
    std::vector<uint64_t> labels(m, 0);
    auto& refine = scratch.sparse_counts;
    for (size_t a = 0; a < d; ++a) {
      refine.clear();
      const std::vector<int32_t>& codes = index_->codes(a);
      for (size_t t = 0; t < m; ++t) {
        const uint64_t key =
            labels[t] * widths[a] + static_cast<uint64_t>(maps[a][codes[t]]);
        labels[t] = static_cast<uint64_t>(
            refine.emplace(key, static_cast<int64_t>(refine.size()))
                .first->second);
      }
    }
    DenseGroupCounter& dense = scratch.dense;
    dense.Begin(m);
    for (size_t t = 0; t < m; ++t) dense.Add(labels[t], weights[t]);
    return dense.AllAtLeast(k);
  }

  if (cells <= kDenseCellBudget) {
    DenseGroupCounter& dense = scratch.dense;
    dense.Begin(cells);
    for (size_t t = 0; t < m; ++t) {
      uint64_t cell = 0;
      for (size_t a = 0; a < d; ++a) {
        cell += static_cast<uint64_t>(maps[a][index_->codes(a)[t]]) *
                strides[a];
      }
      dense.Add(cell, weights[t]);
    }
    return dense.AllAtLeast(k);
  }

  auto& sparse = scratch.sparse_counts;
  sparse.clear();  // keeps its buckets — no steady-state allocation
  for (size_t t = 0; t < m; ++t) {
    uint64_t cell = 0;
    for (size_t a = 0; a < d; ++a) {
      cell += static_cast<uint64_t>(maps[a][index_->codes(a)[t]]) *
              strides[a];
    }
    sparse[cell] += weights[t];
  }
  for (const auto& [cell, count] : sparse) {
    if (count < k) return false;
  }
  return true;
}

}  // namespace pgpub::columnar
