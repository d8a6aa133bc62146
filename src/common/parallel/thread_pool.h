#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/sync/lock_ranks.h"
#include "common/sync/mutex.h"

namespace pgpub {

/// Half-open index range [begin, end) handed to ParallelFor.
struct IndexRange {
  size_t begin = 0;
  size_t end = 0;

  IndexRange() = default;
  IndexRange(size_t b, size_t e) : begin(b), end(e) {}

  size_t size() const { return end > begin ? end - begin : 0; }
};

/// \brief Fixed-size worker pool — the only sanctioned way to run library
/// code on more than one thread (lint rule L7 flags raw std::thread use
/// elsewhere).
///
/// The pool is deliberately dumb: it owns N threads and a FIFO task queue,
/// nothing else. All scheduling policy lives in ParallelFor below, whose
/// contract is what the differential tests in
/// tests/parallel_equivalence_test.cc pin down: for the same inputs the
/// result is bit-identical whether work runs on 1, 2 or 64 threads.
///
/// Thread safety: Start/Stop/Submit may be called concurrently; Start and
/// Stop are idempotent. The destructor stops the pool.
class ThreadPool {
 public:
  /// The thread count requested by the environment: `PGPUB_THREADS` when
  /// set to a positive integer, else std::thread::hardware_concurrency()
  /// (at least 1). Re-reads the environment on every call.
  static int DefaultNumThreads();

  /// Lazily constructed process-wide pool with DefaultNumThreads()
  /// workers, or nullptr when that default is 1 (serial configuration —
  /// callers fall back to inline execution). The default is latched on
  /// first call.
  static ThreadPool* Shared();

  /// A pool with `num_threads` workers (clamped to >= 1). Does not start
  /// the threads; Start() is called lazily on first use.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Spawns the workers. Idempotent; safe after Stop() (restarts).
  void Start() PGPUB_EXCLUDES(mu_);

  /// Drains nothing: tasks already queued still run, then workers join.
  /// Idempotent.
  void Stop() PGPUB_EXCLUDES(mu_);

  /// Enqueues a task. Starts the pool if needed.
  void Submit(std::function<void()> task) PGPUB_EXCLUDES(mu_);

  /// True when the calling thread is currently inside a ParallelFor chunk
  /// (on any pool, or on the serial inline path). Used to reject nested
  /// data parallelism deterministically.
  static bool InParallelRegion();

 private:
  void WorkerLoop() PGPUB_EXCLUDES(mu_);

  const int num_threads_;
  Mutex mu_{"parallel.pool", lock_rank::kThreadPool};
  CondVar cv_;
  bool running_ PGPUB_GUARDED_BY(mu_) = false;
  bool stopping_ PGPUB_GUARDED_BY(mu_) = false;
  // Task paired with its enqueue timestamp (steady ns) so the dequeueing
  // worker can record queue-wait latency.
  std::deque<std::pair<std::function<void()>, uint64_t>> queue_
      PGPUB_GUARDED_BY(mu_);
  std::vector<std::thread> workers_ PGPUB_GUARDED_BY(mu_);
};

/// \brief Deterministic data-parallel loop over [range.begin, range.end).
///
/// The range is cut into fixed chunks of `grain` indices (the last chunk
/// may be short); chunk i covers
///   [range.begin + i*grain, min(range.begin + (i+1)*grain, range.end)).
/// `fn(chunk_begin, chunk_end)` runs exactly once per chunk, on an
/// unspecified thread. The decomposition depends only on (range, grain) —
/// never on the thread count — so any fn that writes index-addressed
/// outputs and draws randomness via Rng::ForStream produces bit-identical
/// results at every thread count.
///
/// Error contract (also deterministic): every chunk runs; if any chunks
/// return non-OK, the error of the *lowest-indexed* failing chunk is
/// returned. An exception escaping fn is captured as Status::Internal —
/// it never crosses the pool threads.
///
/// The calling thread participates in the loop, so a pool busy with other
/// work delays but never deadlocks the call. `pool == nullptr` or a
/// single-chunk range runs inline on the caller (the legacy serial path —
/// same chunking, same error contract).
///
/// Nested calls are rejected with FailedPrecondition regardless of thread
/// count: a ParallelFor from inside a chunk would deadlock a busy pool,
/// and allowing it only in serial mode would make behaviour depend on
/// PGPUB_THREADS.
[[nodiscard]] Status ParallelFor(
    ThreadPool* pool, IndexRange range, size_t grain,
    const std::function<Status(size_t, size_t)>& fn);

/// \brief Resolves a `num_threads` option to a pool.
///
/// `num_threads` semantics (shared by PgOptions and BreachHarnessOptions):
/// 0 = use the environment default (PGPUB_THREADS / hardware), 1 = serial,
/// n > 1 = exactly n workers. The lease owns a dedicated pool only when a
/// non-default count was requested; otherwise it borrows the shared pool.
/// get() is nullptr for serial — exactly what ParallelFor expects.
class PoolLease {
 public:
  explicit PoolLease(int num_threads);

  ThreadPool* get() const { return pool_; }
  /// The resolved worker count (1 for the serial path).
  int num_threads() const { return resolved_; }

 private:
  std::unique_ptr<ThreadPool> owned_;
  ThreadPool* pool_ = nullptr;
  int resolved_ = 1;
};

}  // namespace pgpub
