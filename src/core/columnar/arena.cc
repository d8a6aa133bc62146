#include "core/columnar/arena.h"

#include <algorithm>

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

}  // namespace pgpub::columnar
