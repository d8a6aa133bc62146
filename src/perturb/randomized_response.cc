#include "perturb/randomized_response.h"

#include "common/failpoint.h"
#include "common/logging.h"

namespace pgpub {

namespace {

/// Chunk size for parallel column perturbation: large enough that the
/// per-chunk dispatch cost (~1 queue op) is noise next to ~4k stream
/// setups + draws, small enough to load-balance a 100k-row table over
/// many workers.
constexpr size_t kPerturbGrain = 4096;

}  // namespace

UniformPerturbation::UniformPerturbation(double p, int32_t domain_size)
    : p_(p), domain_size_(domain_size) {
  PGPUB_CHECK(p >= 0.0 && p <= 1.0) << "retention probability " << p;
  PGPUB_CHECK_GT(domain_size, 0);
}

double UniformPerturbation::TransitionProb(int32_t a, int32_t b) const {
  const double background = (1.0 - p_) / static_cast<double>(domain_size_);
  return a == b ? p_ + background : background;
}

double UniformPerturbation::ObservationProb(const std::vector<double>& pdf,
                                            int32_t b) const {
  PGPUB_CHECK_EQ(static_cast<int32_t>(pdf.size()), domain_size_);
  return p_ * pdf[b] + (1.0 - p_) / static_cast<double>(domain_size_);
}

int32_t UniformPerturbation::Perturb(int32_t value, Rng& rng) const {
  PGPUB_CHECK(value >= 0 && value < domain_size_);
  if (rng.Bernoulli(p_)) return value;
  return static_cast<int32_t>(rng.UniformU64(domain_size_));
}

Result<std::vector<int32_t>> UniformPerturbation::PerturbColumnStreams(
    const std::vector<int32_t>& column, uint64_t seed,
    ThreadPool* pool) const {
  std::vector<int32_t> out(column.size());
  RETURN_IF_ERROR(ParallelFor(
      pool, IndexRange(0, column.size()), kPerturbGrain,
      [&](size_t begin, size_t end) -> Status {
        PGPUB_FAILPOINT(failpoints::kPerturbWorker);
        for (size_t i = begin; i < end; ++i) {
          out[i] = PerturbAt(column[i], seed, static_cast<uint64_t>(i));
        }
        return Status::OK();
      }));
  return out;
}

}  // namespace pgpub
