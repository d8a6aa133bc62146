#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

/// \file
/// Per-thread scratch memory for Incognito's lattice folds
/// (DESIGN.md §15). Lattice-node counting runs thousands of times per
/// publication; these structures let every call after warm-up run with
/// zero heap allocation:
///
///   - DenseGroupCounter: an epoch-marked dense count array — "zeroing"
///     between uses is one epoch bump, not an O(cells) memset.
///   - Phase2Scratch: everything one fold needs. LatticeCounter keeps one
///     per thread (thread_local), so concurrent folds never share one.
///
/// Scratch contents never influence published bytes — every consumer
/// fully overwrites (or epoch-guards) what it reads, so which warmed
/// scratch a fold runs on is irrelevant to the output.
namespace pgpub::columnar {

/// \brief Epoch-marked dense group counter: Add() accumulates into a flat
/// cell array whose stale entries are invalidated by bumping `epoch_`
/// instead of rescanning, and the touched-cell list makes the final
/// "every nonempty cell >= k" check O(groups), not O(cells).
class DenseGroupCounter {
 public:
  /// Starts a fresh count over `num_cells` cells (grows storage as
  /// needed; growth is one-time and amortized away in steady state).
  void Begin(uint64_t num_cells);

  void Add(uint64_t cell, int64_t count) {
    if (version_[cell] != epoch_) {
      version_[cell] = epoch_;
      counts_[cell] = count;
      touched_.push_back(cell);
    } else {
      counts_[cell] += count;
    }
  }

  bool AllAtLeast(int64_t k) const {
    for (uint64_t cell : touched_) {
      if (counts_[cell] < k) return false;
    }
    return true;
  }

  size_t num_touched() const { return touched_.size(); }

 private:
  std::vector<int64_t> counts_;
  std::vector<uint32_t> version_;
  std::vector<uint64_t> touched_;
  uint32_t epoch_ = 0;
};

/// Everything one lattice fold needs: a dense counter for lattice cells,
/// and a hash map reused (clear() keeps its buckets) when a node's cell
/// space is too large for the dense path.
struct Phase2Scratch {
  DenseGroupCounter dense;
  std::unordered_map<uint64_t, int64_t> sparse_counts;
};

}  // namespace pgpub::columnar
