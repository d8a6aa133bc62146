/// Property/stress tests for the parallel execution engine: pool
/// lifecycle, the deterministic ParallelFor contract,
/// exception containment, nested-region rejection, and a 10k-task churn.
/// Runs under the TSan CI job — the scheduling here is deliberately
/// adversarial so races surface as test failures, not as assumptions.

#include "common/parallel/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/random.h"

namespace pgpub {
namespace {

TEST(ThreadPoolTest, DefaultNumThreadsIsPositive) {
  EXPECT_GE(ThreadPool::DefaultNumThreads(), 1);
}

TEST(ThreadPoolTest, StartAndStopAreIdempotent) {
  ThreadPool pool(3);
  pool.Start();
  pool.Start();  // second Start is a no-op
  EXPECT_EQ(pool.num_threads(), 3);
  pool.Stop();
  pool.Stop();  // second Stop is a no-op

  // Restart after Stop: the pool must be usable again.
  std::atomic<int> ran{0};
  ASSERT_TRUE(ParallelFor(&pool, IndexRange(0, 64), 1,
                          [&](size_t, size_t) -> Status {
                            ran.fetch_add(1);
                            return Status::OK();
                          })
                  .ok());
  EXPECT_EQ(ran.load(), 64);
  pool.Stop();
}

TEST(ThreadPoolTest, ThreadCountClampsToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  ThreadPool neg(-4);
  EXPECT_EQ(neg.num_threads(), 1);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  ASSERT_TRUE(ParallelFor(&pool, IndexRange(0, hits.size()), 7,
                          [&](size_t begin, size_t end) -> Status {
                            for (size_t i = begin; i < end; ++i) ++hits[i];
                            return Status::OK();
                          })
                  .ok());
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ParallelForTest, NonZeroRangeBeginIsRespected) {
  std::vector<int> hits(100, 0);
  ASSERT_TRUE(ParallelFor(nullptr, IndexRange(40, 100), 9,
                          [&](size_t begin, size_t end) -> Status {
                            for (size_t i = begin; i < end; ++i) ++hits[i];
                            return Status::OK();
                          })
                  .ok());
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 60);
  EXPECT_EQ(hits[39], 0);
  EXPECT_EQ(hits[40], 1);
}

TEST(ParallelForTest, EmptyRangeIsOkWithoutCallingFn) {
  int calls = 0;
  EXPECT_TRUE(ParallelFor(nullptr, IndexRange(5, 5), 1,
                          [&](size_t, size_t) -> Status {
                            ++calls;
                            return Status::OK();
                          })
                  .ok());
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, ZeroGrainIsRejected) {
  const Status st = ParallelFor(nullptr, IndexRange(0, 10), 0,
                                [](size_t, size_t) { return Status::OK(); });
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(ParallelForTest, ExceptionInTaskBecomesStatusNotTerminate) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    ThreadPool* arg = threads == 1 ? nullptr : &pool;
    const Status st = ParallelFor(
        arg, IndexRange(0, 100), 5, [&](size_t begin, size_t) -> Status {
          if (begin >= 50) throw std::runtime_error("boom at " +
                                                    std::to_string(begin));
          return Status::OK();
        });
    EXPECT_EQ(st.code(), StatusCode::kInternal) << "threads=" << threads;
    // Lowest failing chunk wins deterministically: begin == 50.
    EXPECT_NE(st.message().find("boom at 50"), std::string::npos)
        << st.message();
  }
}

TEST(ParallelForTest, LowestFailingChunkWinsAtEveryThreadCount) {
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    ThreadPool* arg = threads == 1 ? nullptr : &pool;
    const Status st = ParallelFor(
        arg, IndexRange(0, 64), 1, [&](size_t begin, size_t) -> Status {
          if (begin % 3 == 1) {
            return Status::Internal("chunk " + std::to_string(begin));
          }
          return Status::OK();
        });
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("chunk 1"), std::string::npos)
        << "threads=" << threads << ": " << st.message();
  }
}

TEST(ParallelForTest, NestedParallelForIsRejectedAtEveryThreadCount) {
  // The rejection must not depend on PGPUB_THREADS, or serial and parallel
  // runs would disagree on whether a (buggy) nested call works.
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    ThreadPool* arg = threads == 1 ? nullptr : &pool;
    Status inner_status = Status::OK();
    const Status outer = ParallelFor(
        arg, IndexRange(0, 8), 1, [&](size_t begin, size_t) -> Status {
          if (begin == 0) {
            inner_status =
                ParallelFor(arg, IndexRange(0, 4), 1,
                            [](size_t, size_t) { return Status::OK(); });
            return inner_status;
          }
          return Status::OK();
        });
    EXPECT_EQ(outer.code(), StatusCode::kFailedPrecondition)
        << "threads=" << threads;
    EXPECT_EQ(inner_status.code(), StatusCode::kFailedPrecondition)
        << "threads=" << threads;
    EXPECT_NE(outer.message().find("nested"), std::string::npos);
  }
}

TEST(ParallelForTest, TenThousandTaskChurn) {
  ThreadPool pool(4);
  std::atomic<uint64_t> sum{0};
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(ParallelFor(&pool, IndexRange(0, 10000), 1,
                            [&](size_t begin, size_t end) -> Status {
                              for (size_t i = begin; i < end; ++i) {
                                sum.fetch_add(i, std::memory_order_relaxed);
                              }
                              return Status::OK();
                            })
                    .ok());
  }
  // 4 rounds of sum over 0..9999.
  EXPECT_EQ(sum.load(), 4ull * (9999ull * 10000ull / 2));
}

TEST(PoolLeaseTest, ResolvesOptionSemantics) {
  // 1 = serial: no pool at all.
  PoolLease serial(1);
  EXPECT_EQ(serial.get(), nullptr);
  EXPECT_EQ(serial.num_threads(), 1);
  // n > 1 = a pool with exactly n workers.
  PoolLease dedicated(3);
  ASSERT_NE(dedicated.get(), nullptr);
  EXPECT_EQ(dedicated.get()->num_threads(), 3);
  EXPECT_EQ(dedicated.num_threads(), 3);
  // 0 = environment default; pool iff the default is parallel.
  PoolLease deflt(0);
  EXPECT_EQ(deflt.num_threads() > 1, deflt.get() != nullptr);
}

TEST(RngStreamTest, ForStreamIsPureAndOrderIndependent) {
  Rng a = Rng::ForStream(42, 7);
  Rng b = Rng::ForStream(42, 7);
  EXPECT_EQ(a.Next64(), b.Next64());
  // Draws from one stream do not disturb another.
  Rng c = Rng::ForStream(42, 8);
  const uint64_t c_first = c.Next64();
  Rng d = Rng::ForStream(42, 7);
  for (int i = 0; i < 100; ++i) d.Next64();
  Rng e = Rng::ForStream(42, 8);
  EXPECT_EQ(e.Next64(), c_first);
  // Different seeds and different indices give different streams.
  EXPECT_NE(Rng::ForStream(42, 7).Next64(), Rng::ForStream(43, 7).Next64());
  EXPECT_NE(Rng::ForStream(42, 7).Next64(), Rng::ForStream(42, 8).Next64());
}

}  // namespace
}  // namespace pgpub
