#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/sync/lock_ranks.h"
#include "common/sync/mutex.h"

/// \file
/// Per-request scratch memory for Incognito's lattice folds
/// (DESIGN.md §15). Lattice-node counting runs thousands of times per
/// publication; these structures let every call after warm-up run with
/// zero heap allocation:
///
///   - DenseGroupCounter: an epoch-marked dense count array — "zeroing"
///     between uses is one epoch bump, not an O(cells) memset.
///   - ScratchPool: a mutex-guarded free list handing one Phase2Scratch
///     to each concurrent fold; steady state creates nothing.
///
/// Lifetime rules: a Phase2Scratch is exclusively owned between Acquire()
/// and the lease's destruction; nothing read out of scratch may outlive
/// the lease. Scratch contents never influence published bytes — every
/// consumer fully overwrites (or epoch-guards) what it reads, so which
/// pooled scratch a thread happens to receive is irrelevant to the output.
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

/// Everything one concurrent lattice fold needs: a dense counter for
/// lattice cells, and a hash map reused (clear() keeps its buckets) when a
/// node's cell space is too large for the dense path.
struct Phase2Scratch {
  DenseGroupCounter dense;
  std::unordered_map<uint64_t, int64_t> sparse_counts;
};

/// \brief Free list of Phase2Scratch objects shared across threads and —
/// when owned by a PublicationEngine — across requests.
///
/// Acquire() hands out an existing scratch when one is free and creates
/// one only when every scratch is in use, so the pool's high-water mark
/// is the peak evaluation concurrency and steady state allocates nothing.
class ScratchPool {
 public:
  ScratchPool() = default;
  ScratchPool(const ScratchPool&) = delete;
  ScratchPool& operator=(const ScratchPool&) = delete;

  /// RAII lease over one scratch; returns it to the pool on destruction.
  class Lease {
   public:
    Lease(ScratchPool* pool, Phase2Scratch* scratch)
        : pool_(pool), scratch_(scratch) {}
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), scratch_(other.scratch_) {
      other.pool_ = nullptr;
      other.scratch_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
      if (pool_ != nullptr) pool_->Release(scratch_);
    }

    Phase2Scratch* get() const { return scratch_; }
    Phase2Scratch* operator->() const { return scratch_; }

   private:
    ScratchPool* pool_;
    Phase2Scratch* scratch_;
  };

  [[nodiscard]] Lease Acquire();

  /// Scratches ever created by this pool (== its high-water concurrency).
  uint64_t scratches_created() const;

 private:
  void Release(Phase2Scratch* scratch);

  mutable Mutex mu_{"columnar.scratch_pool", lock_rank::kScratchPool};
  std::vector<std::unique_ptr<Phase2Scratch>> all_ PGPUB_GUARDED_BY(mu_);
  std::vector<Phase2Scratch*> free_ PGPUB_GUARDED_BY(mu_);
  uint64_t created_ PGPUB_GUARDED_BY(mu_) = 0;
};

}  // namespace pgpub::columnar
