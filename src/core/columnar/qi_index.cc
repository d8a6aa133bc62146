#include "core/columnar/qi_index.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/logging.h"

namespace pgpub::columnar {
namespace {

/// Per-thread memory of LatticeCounter::AnonymousChildren.
struct FoldScratch {
  std::vector<uint32_t> ids;    ///< [tuple] cell number under the parent
  std::vector<uint32_t> slots;  ///< [cell] number + 1, or row count
  std::unordered_map<uint64_t, int64_t> sparse;  ///< slots above budget
};

constexpr uint64_t kDenseSlots = kDenseTableBytes / sizeof(uint32_t);

/// The first `cells` slots, zeroed (grows the table as needed).
uint32_t* ZeroedSlots(std::vector<uint32_t>* slots, uint64_t cells) {
  if (slots->size() < cells) slots->resize(cells);
  std::fill_n(slots->begin(), cells, 0u);
  return slots->data();
}

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
  PGPUB_CHECK_LE(d, kMaxLatticeAttrs);
  remap_.resize(d);
  num_intervals_.resize(d);
  ncp_terms_.resize(d);
  for (size_t a = 0; a < d; ++a) {
    const Taxonomy* tax = taxonomies[a];
    PGPUB_CHECK(tax != nullptr);
    const int32_t domain = tax->domain_size();
    // rows_with[c] = number of table rows whose attribute-a code is c.
    std::vector<int64_t> rows_with(domain, 0);
    const std::vector<int32_t>& codes = index_->codes(a);
    for (size_t t = 0; t < codes.size(); ++t) {
      rows_with[codes[t]] += index_->weights()[t];
    }
    const int height = tax->height();
    remap_[a].resize(height + 1);
    num_intervals_[a].resize(height + 1);
    ncp_terms_[a].assign(height + 1, 0.0);
    for (int depth = 0; depth <= height; ++depth) {
      const std::vector<int> cut = tax->CutAtDepth(depth);
      std::vector<int32_t>& ranks = remap_[a][depth];
      ranks.resize(domain);
      // Σ over rows of (width - 1), exact in integers; one division
      // below turns it into the attribute's NCP share.
      int64_t penalty = 0;
      for (size_t rank = 0; rank < cut.size(); ++rank) {
        const Interval& range = tax->node(cut[rank]).range;
        for (int32_t c = range.lo; c <= range.hi; ++c) {
          ranks[c] = static_cast<int32_t>(rank);
          penalty += rows_with[c] * (range.width() - 1);
        }
      }
      num_intervals_[a][depth] = static_cast<int32_t>(cut.size());
      if (domain > 1) {
        ncp_terms_[a][depth] =
            static_cast<double>(penalty) / static_cast<double>(domain - 1);
      }
    }
  }
}

uint64_t LatticeCounter::AnonymousChildren(const std::vector<int>& parent,
                                           uint64_t child_attrs,
                                           int k) const {
  const size_t d = remap_.size();
  PGPUB_CHECK_EQ(parent.size(), d);
  PGPUB_CHECK_GE(k, 1);
  thread_local FoldScratch scratch;
  auto clamped = [&](size_t a, int depth) {
    return std::min(depth, static_cast<int>(remap_[a].size()) - 1);
  };

  // Fold the parent: after attribute a, ids[t] numbers the distinct cells
  // of the parent restricted to attributes 0..a. The key (number, rank)
  // fits u64 since both factors are < 2^32, and the numbers stay below
  // the tuple count, so every step is exact whatever the cell space.
  const size_t m = index_->num_tuples();
  scratch.ids.assign(m, 0);  // keeps its capacity
  uint32_t* ids = scratch.ids.data();
  uint64_t num_ids = 1;
  for (size_t a = 0; a < d; ++a) {
    const int depth = clamped(a, parent[a]);
    const auto width = static_cast<uint64_t>(num_intervals_[a][depth]);
    if (width == 1) continue;  // one interval refines nothing
    const int32_t* map = remap_[a][depth].data();
    const int32_t* codes = index_->codes(a).data();
    const uint64_t cells = num_ids * width;
    if (cells <= kDenseSlots) {
      uint32_t* number = ZeroedSlots(&scratch.slots, cells);
      uint32_t next = 0;
      for (size_t t = 0; t < m; ++t) {
        uint32_t& slot = number[ids[t] * width + map[codes[t]]];
        if (slot == 0) slot = ++next;
        ids[t] = slot - 1;
      }
      num_ids = next;
    } else {
      auto& number = scratch.sparse;
      number.clear();  // keeps its buckets — no steady-state allocation
      for (size_t t = 0; t < m; ++t) {
        const uint64_t cell = ids[t] * width + map[codes[t]];
        ids[t] = static_cast<uint32_t>(
            number.emplace(cell, static_cast<int64_t>(number.size()))
                .first->second);
      }
      num_ids = number.size();
    }
  }

  // Each child p + e_j refines the parent's cells by attribute j alone:
  // one pass sums its rows per cell.
  const int64_t* weights = index_->weights().data();
  uint64_t anonymous = 0;
  for (size_t j = 0; j < d; ++j) {
    if ((child_attrs >> j & 1) == 0) continue;
    const int depth = clamped(j, parent[j] + 1);
    const auto width = static_cast<uint64_t>(num_intervals_[j][depth]);
    const int32_t* map = remap_[j][depth].data();
    const int32_t* codes = index_->codes(j).data();
    const uint64_t cells = num_ids * width;
    bool all_at_least_k = true;
    if (cells <= kDenseSlots) {
      uint32_t* rows = ZeroedSlots(&scratch.slots, cells);
      for (size_t t = 0; t < m; ++t) {
        rows[ids[t] * width + map[codes[t]]] +=
            static_cast<uint32_t>(weights[t]);
      }
      for (uint64_t c = 0; c < cells && all_at_least_k; ++c) {
        all_at_least_k = rows[c] == 0 || rows[c] >= static_cast<uint32_t>(k);
      }
    } else {
      auto& rows = scratch.sparse;
      rows.clear();
      for (size_t t = 0; t < m; ++t) {
        rows[ids[t] * width + map[codes[t]]] += weights[t];
      }
      for (const auto& [cell, count] : rows) {
        all_at_least_k = all_at_least_k && count >= k;
      }
    }
    if (all_at_least_k) anonymous |= uint64_t{1} << j;
  }
  return anonymous;
}

double LatticeCounter::NcpAtDepths(const std::vector<int>& depths) const {
  const size_t d = ncp_terms_.size();
  PGPUB_CHECK_EQ(depths.size(), d);
  const size_t n = index_->num_rows();
  if (n == 0 || d == 0) return 0.0;
  double total = 0.0;
  for (size_t a = 0; a < d; ++a) {
    const int height = static_cast<int>(ncp_terms_[a].size()) - 1;
    total += ncp_terms_[a][std::min(depths[a], height)];
  }
  return total / (static_cast<double>(n) * static_cast<double>(d));
}

}  // namespace pgpub::columnar
