#include "core/columnar/arena.h"

#include <algorithm>

#include "common/logging.h"

namespace pgpub::columnar {

void DenseGroupCounter::Begin(uint64_t num_cells) {
  if (num_cells > counts_.size()) {
    counts_.resize(num_cells);
    version_.resize(num_cells, epoch_);
    // Freshly resized versions report "current epoch" with garbage
    // counts; bumping below invalidates every cell uniformly.
  }
  touched_.clear();
  ++epoch_;
  if (epoch_ == 0) {
    // Epoch wrapped: stale versions could now collide with the new
    // epoch value, so pay one full reset (every ~4 billion Begin()s).
    std::fill(version_.begin(), version_.end(), epoch_);
    ++epoch_;
  }
}

ScratchPool::Lease ScratchPool::Acquire() {
  MutexLock lock(&mu_);
  if (!free_.empty()) {
    Phase2Scratch* s = free_.back();
    free_.pop_back();
    return Lease(this, s);
  }
  all_.push_back(std::make_unique<Phase2Scratch>());
  ++created_;
  return Lease(this, all_.back().get());
}

void ScratchPool::Release(Phase2Scratch* scratch) {
  PGPUB_CHECK(scratch != nullptr);
  MutexLock lock(&mu_);
  free_.push_back(scratch);
}

uint64_t ScratchPool::scratches_created() const {
  MutexLock lock(&mu_);
  return created_;
}

}  // namespace pgpub::columnar
