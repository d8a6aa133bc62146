#include <gtest/gtest.h>

#include <cmath>

#include "common/parallel/thread_pool.h"
#include "common/random.h"
#include "perturb/randomized_response.h"
#include "perturb/reconstruction.h"

namespace pgpub {
namespace {

// -------------------------------------------------- UniformPerturbation

TEST(UniformPerturbationTest, Equation11Probabilities) {
  UniformPerturbation ch(0.25, 7);
  const double bg = 0.75 / 7.0;
  EXPECT_NEAR(ch.TransitionProb(3, 3), 0.25 + bg, 1e-12);
  EXPECT_NEAR(ch.TransitionProb(3, 4), bg, 1e-12);
}

TEST(UniformPerturbationTest, RowsSumToOne) {
  for (double p : {0.0, 0.15, 0.5, 1.0}) {
    UniformPerturbation ch(p, 50);
    for (int32_t a = 0; a < 50; ++a) {
      double sum = 0.0;
      for (int32_t b = 0; b < 50; ++b) sum += ch.TransitionProb(a, b);
      EXPECT_NEAR(sum, 1.0, 1e-9);
    }
  }
}

TEST(UniformPerturbationTest, ObservationProb) {
  UniformPerturbation ch(0.3, 4);
  std::vector<double> pdf = {0.4, 0.3, 0.2, 0.1};
  for (int32_t b = 0; b < 4; ++b) {
    EXPECT_NEAR(ch.ObservationProb(pdf, b), 0.3 * pdf[b] + 0.7 / 4.0, 1e-12);
  }
}

TEST(UniformPerturbationTest, PIsOneKeepsEverything) {
  UniformPerturbation ch(1.0, 10);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int32_t v = static_cast<int32_t>(rng.UniformU64(10));
    EXPECT_EQ(ch.Perturb(v, rng), v);
  }
}

TEST(UniformPerturbationTest, PIsZeroIsUniform) {
  UniformPerturbation ch(0.0, 5);
  Rng rng(2);
  std::vector<int> counts(5, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[ch.Perturb(0, rng)]++;
  for (int c : counts) {
    EXPECT_NEAR(c / static_cast<double>(n), 0.2, 0.01);
  }
}

TEST(UniformPerturbationTest, EmpiricalFrequenciesMatchEquation11) {
  const double p = 0.3;
  const int32_t m = 8;
  UniformPerturbation ch(p, m);
  Rng rng(3);
  const int n = 200000;
  std::vector<int> counts(m, 0);
  for (int i = 0; i < n; ++i) counts[ch.Perturb(2, rng)]++;
  for (int32_t b = 0; b < m; ++b) {
    EXPECT_NEAR(counts[b] / static_cast<double>(n), ch.TransitionProb(2, b),
                0.01);
  }
}

TEST(UniformPerturbationTest, ColumnPerturbationIsElementwise) {
  UniformPerturbation ch(1.0, 6);
  std::vector<int32_t> col = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(ch.PerturbColumnStreams(col, 4).ValueOrDie(), col);
}

// --------------------------------------------------------- Reconstructor

TEST(ReconstructorTest, ExactOnExpectedCounts) {
  // With observed = expected channel output, reconstruction recovers the
  // true counts exactly.
  const double p = 0.3;
  std::vector<double> weights = {0.5, 0.3, 0.2};
  Reconstructor rc(p, weights);
  std::vector<double> truth = {700, 200, 100};
  const double total = 1000;
  std::vector<double> observed(3);
  for (int b = 0; b < 3; ++b) {
    observed[b] = p * truth[b] + (1 - p) * total * weights[b];
  }
  std::vector<double> est = rc.ReconstructCounts(observed);
  for (int b = 0; b < 3; ++b) EXPECT_NEAR(est[b], truth[b], 1e-6);
}

TEST(ReconstructorTest, PreservesTotal) {
  Reconstructor rc(0.4, {0.5, 0.5});
  std::vector<double> est = rc.ReconstructCounts({90, 10});
  EXPECT_NEAR(est[0] + est[1], 100.0, 1e-9);
}

TEST(ReconstructorTest, ClampsNegativesAndRescales) {
  // Observed so skewed that the naive estimate of class 1 is negative.
  Reconstructor rc(0.5, {0.5, 0.5});
  std::vector<double> est = rc.ReconstructCounts({100, 0});
  EXPECT_GE(est[1], 0.0);
  EXPECT_NEAR(est[0] + est[1], 100.0, 1e-9);
}

TEST(ReconstructorTest, PZeroReturnsObserved) {
  Reconstructor rc(0.0, {0.5, 0.5});
  std::vector<double> observed = {60, 40};
  EXPECT_EQ(rc.ReconstructCounts(observed), observed);
}

TEST(ReconstructorTest, StatisticallyUnbiasedOnSimulatedData) {
  const double p = 0.35;
  const int32_t us = 50;
  UniformPerturbation ch(p, us);
  Rng rng(6);
  // Categories over U^s: [0,24] and [25,49].
  std::vector<double> weights = {0.5, 0.5};
  Reconstructor rc(p, weights);
  const int n = 100000;
  double true0 = 0;
  std::vector<double> observed(2, 0.0);
  for (int i = 0; i < n; ++i) {
    const int32_t v = static_cast<int32_t>(rng.UniformU64(35));  // skew low
    if (v < 25) ++true0;
    observed[ch.Perturb(v, rng) < 25 ? 0 : 1] += 1.0;
  }
  std::vector<double> est = rc.ReconstructCounts(observed);
  EXPECT_NEAR(est[0] / n, true0 / n, 0.02);
}

// ------------------------------------------- Stream-keyed perturbation
//
// Regression pins for the seed-reuse fix: tuple i is perturbed by
// Rng::ForStream(seed, i), a pure function of (seed, i). Before the fix a
// single sequential generator was threaded through the column, so a
// tuple's draw depended on every tuple before it. These goldens freeze
// the seed-42 wire format; they must never change silently.

TEST(StreamPerturbationTest, GoldenSeed42RngStreams) {
  // Raw first draws of the derived streams (integer, compiler-stable).
  EXPECT_EQ(Rng::ForStream(42, 0).Next64(), 1612282365895558498ull);
  EXPECT_EQ(Rng::ForStream(42, 1).Next64(), 17059824962477445315ull);
  EXPECT_EQ(Rng::ForStream(42, 123456789).Next64(), 11065604480197306863ull);
}

TEST(StreamPerturbationTest, GoldenSeed42UniformColumn) {
  std::vector<int32_t> col;
  for (int i = 0; i < 16; ++i) col.push_back(i % 5);
  UniformPerturbation ch(0.3, 5);
  const std::vector<int32_t> got =
      ch.PerturbColumnStreams(col, 42, nullptr).ValueOrDie();
  const std::vector<int32_t> want = {0, 4, 4, 3, 4, 4, 4, 2,
                                     4, 4, 1, 0, 4, 3, 4, 2};
  EXPECT_EQ(got, want);
}

TEST(StreamPerturbationTest, PerturbAtMatchesColumnEntry) {
  // PerturbAt(value, seed, i) is the scalar form of column entry i.
  std::vector<int32_t> col;
  for (int i = 0; i < 64; ++i) col.push_back((i * 7) % 9);
  UniformPerturbation ch(0.55, 9);
  const std::vector<int32_t> column =
      ch.PerturbColumnStreams(col, 42, nullptr).ValueOrDie();
  for (size_t i = 0; i < col.size(); ++i) {
    EXPECT_EQ(ch.PerturbAt(col[i], 42, i), column[i]) << "index " << i;
  }
}

TEST(StreamPerturbationTest, ColumnIsInvariantToPoolSize) {
  std::vector<int32_t> col;
  for (int i = 0; i < 20000; ++i) col.push_back(i % 11);
  UniformPerturbation ch(0.3, 11);
  const std::vector<int32_t> serial =
      ch.PerturbColumnStreams(col, 42, nullptr).ValueOrDie();
  for (int threads : {2, 3, 8}) {
    ThreadPool pool(threads);
    const std::vector<int32_t> parallel =
        ch.PerturbColumnStreams(col, 42, &pool).ValueOrDie();
    EXPECT_EQ(serial, parallel) << "threads=" << threads;
  }
}

TEST(StreamPerturbationTest, StreamsDecoupleNeighboringTuples) {
  // The latent bug being guarded against: with a shared sequential RNG,
  // changing tuple 0's value shifts the draws consumed by tuple 1. With
  // streams, tuple i's output depends only on (value_i, seed, i).
  UniformPerturbation ch(0.3, 5);
  std::vector<int32_t> a = {0, 3, 3, 3, 3, 3, 3, 3};
  std::vector<int32_t> b = {4, 3, 3, 3, 3, 3, 3, 3};  // only tuple 0 differs
  const std::vector<int32_t> pa =
      ch.PerturbColumnStreams(a, 42, nullptr).ValueOrDie();
  const std::vector<int32_t> pb =
      ch.PerturbColumnStreams(b, 42, nullptr).ValueOrDie();
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_EQ(pa[i], pb[i]) << "index " << i;
  }
}

}  // namespace
}  // namespace pgpub
