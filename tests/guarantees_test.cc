#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "core/guarantees.h"

namespace pgpub {
namespace {

constexpr double kPaperLambda = 0.1;
constexpr double kPaperRho1 = 0.2;
constexpr int kPaperUs = 50;

PgParams Paper(double p, int k) { return {p, k, kPaperLambda, kPaperUs}; }

// ----------------------------------------------------------- Table III(a)

// GoogleTest names each case after the raw bytes of its parameter, so the
// struct must have no padding: uninitialised padding bytes would give the
// cases a different name on every run. A 64-bit k fills the slot an int
// would leave before the first double.
struct Table3aRow {
  std::int64_t k;
  double rho2;  // paper's printed ">= rho2" value
  double delta;
};

class Table3a : public ::testing::TestWithParam<Table3aRow> {};

TEST_P(Table3a, ReproducesPaperValues) {
  const Table3aRow row = GetParam();
  PgParams params = Paper(0.3, static_cast<int>(row.k));
  // The paper prints two decimals; our closed forms must agree within one
  // unit in the last printed digit.
  EXPECT_NEAR(MinRho2(params, kPaperRho1), row.rho2, 0.011)
      << "k=" << row.k;
  EXPECT_NEAR(MinDelta(params), row.delta, 0.011) << "k=" << row.k;
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, Table3a,
    ::testing::Values(Table3aRow{2, 0.69, 0.47}, Table3aRow{4, 0.53, 0.31},
                      Table3aRow{6, 0.45, 0.24}, Table3aRow{8, 0.40, 0.19},
                      Table3aRow{10, 0.36, 0.16}));

// ----------------------------------------------------------- Table III(b)

struct Table3bRow {
  double p;
  double rho2;
  double delta;
};

class Table3b : public ::testing::TestWithParam<Table3bRow> {};

TEST_P(Table3b, ReproducesPaperValues) {
  const Table3bRow row = GetParam();
  PgParams params = Paper(row.p, 6);
  EXPECT_NEAR(MinRho2(params, kPaperRho1), row.rho2, 0.011)
      << "p=" << row.p;
  EXPECT_NEAR(MinDelta(params), row.delta, 0.011) << "p=" << row.p;
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, Table3b,
    ::testing::Values(Table3bRow{0.15, 0.34, 0.12},
                      Table3bRow{0.20, 0.38, 0.16},
                      Table3bRow{0.25, 0.41, 0.20},
                      Table3bRow{0.30, 0.45, 0.24},
                      Table3bRow{0.35, 0.49, 0.28},
                      Table3bRow{0.40, 0.52, 0.32},
                      Table3bRow{0.45, 0.56, 0.36}));

// ------------------------------------------------------------- Components

TEST(GuaranteesTest, NoiseFloor) {
  EXPECT_NEAR(NoiseFloor(0.3, 50), 0.014, 1e-12);
  EXPECT_NEAR(NoiseFloor(1.0, 50), 0.0, 1e-12);
  EXPECT_NEAR(NoiseFloor(0.0, 4), 0.25, 1e-12);
}

TEST(GuaranteesTest, HTopHandComputed) {
  // p=0.3, k=2, lambda=0.1, us=50: (0.03+0.014)/(0.03+0.028).
  EXPECT_NEAR(HTop(Paper(0.3, 2)), 0.044 / 0.058, 1e-9);
  EXPECT_NEAR(HTop(Paper(0.3, 10)), 0.044 / 0.170, 1e-9);
}

TEST(GuaranteesTest, HTopEdges) {
  // k = 1: bound is 1 (the victim may be the only candidate).
  EXPECT_NEAR(HTop(Paper(0.3, 1)), 1.0, 1e-12);
  // p = 1: no noise, h_top = 1 regardless of k.
  EXPECT_NEAR(HTop(Paper(1.0, 8)), 1.0, 1e-12);
  // p = 0: h_top = 1/k.
  EXPECT_NEAR(HTop(Paper(0.0, 8)), 1.0 / 8.0, 1e-12);
}

TEST(GuaranteesTest, TheoremFBasics) {
  // F(0) = 0; F(1) = 0 (numerator -p + p).
  EXPECT_NEAR(TheoremF(0.0, 0.3, 50), 0.0, 1e-12);
  EXPECT_NEAR(TheoremF(1.0, 0.3, 50), 0.0, 1e-12);
  EXPECT_GT(TheoremF(0.1, 0.3, 50), 0.0);
}

TEST(GuaranteesTest, TheoremWmIsTheMaximizer) {
  const double p = 0.3;
  const int us = 50;
  const double wm = TheoremWm(p, us);
  const double fm = TheoremF(wm, p, us);
  for (double w = 0.01; w < 1.0; w += 0.01) {
    EXPECT_LE(TheoremF(w, p, us), fm + 1e-12) << "w=" << w;
  }
  // Hand value: u=0.014, wm = (sqrt(u^2+p*u)-u)/p.
  EXPECT_NEAR(wm, (std::sqrt(0.014 * 0.014 + 0.3 * 0.014) - 0.014) / 0.3,
              1e-12);
}

TEST(GuaranteesTest, MinDeltaUsesWmWhenLambdaLarge) {
  PgParams params = Paper(0.3, 6);
  params.lambda = 0.9;  // beyond w_m
  const double wm = TheoremWm(0.3, 50);
  EXPECT_NEAR(MinDelta(params), HTop(params) * TheoremF(wm, 0.3, 50),
              1e-12);
}

TEST(GuaranteesTest, DegenerateRetentionValues) {
  // p = 0: posterior == prior, so rho2 = rho1 and delta = 0.
  EXPECT_NEAR(MinRho2(Paper(0.0, 6), 0.2), 0.2, 1e-9);
  EXPECT_NEAR(MinDelta(Paper(0.0, 6)), 0.0, 1e-12);
  // p = 1: no protection from perturbation; rho2 collapses toward 1 as
  // k -> 1.
  EXPECT_NEAR(MinRho2(Paper(1.0, 1), 0.2), 1.0, 1e-9);
}

// ------------------------------------------------------- Monotonicity

class RetentionGrid : public ::testing::TestWithParam<int> {};

TEST_P(RetentionGrid, BoundsAreMonotoneInP) {
  const int k = GetParam();
  double prev_rho2 = 0.0, prev_delta = -1.0;
  for (double p = 0.0; p <= 1.0001; p += 0.05) {
    PgParams params = Paper(std::min(p, 1.0), k);
    const double rho2 = MinRho2(params, kPaperRho1);
    const double delta = MinDelta(params);
    EXPECT_GE(rho2 + 1e-9, prev_rho2) << "p=" << p;
    EXPECT_GE(delta + 1e-9, prev_delta) << "p=" << p;
    prev_rho2 = rho2;
    prev_delta = delta;
  }
}

INSTANTIATE_TEST_SUITE_P(KValues, RetentionGrid,
                         ::testing::Values(1, 2, 4, 6, 10, 25));

class KGrid : public ::testing::TestWithParam<double> {};

TEST_P(KGrid, BoundsAreMonotoneDecreasingInK) {
  const double p = GetParam();
  double prev_rho2 = 2.0, prev_delta = 2.0;
  for (int k = 1; k <= 64; k *= 2) {
    PgParams params = Paper(p, k);
    const double rho2 = MinRho2(params, kPaperRho1);
    const double delta = MinDelta(params);
    EXPECT_LE(rho2, prev_rho2 + 1e-9) << "k=" << k;
    EXPECT_LE(delta, prev_delta + 1e-9) << "k=" << k;
    prev_rho2 = rho2;
    prev_delta = delta;
  }
}

INSTANTIATE_TEST_SUITE_P(PValues, KGrid,
                         ::testing::Values(0.1, 0.3, 0.5, 0.8));

TEST(GuaranteesTest, BoundsAreMonotoneInLambda) {
  double prev_rho2 = 0.0, prev_delta = -1.0;
  for (double lambda = 0.02; lambda <= 1.0; lambda += 0.05) {
    PgParams params{0.3, 6, lambda, kPaperUs};
    EXPECT_GE(MinRho2(params, kPaperRho1) + 1e-9, prev_rho2);
    EXPECT_GE(MinDelta(params) + 1e-9, prev_delta);
    prev_rho2 = MinRho2(params, kPaperRho1);
    prev_delta = MinDelta(params);
  }
}

TEST(GuaranteesTest, CombinedRho2NeverWorseThanEitherRoute) {
  // A Delta-growth guarantee with Delta = rho2 - rho1 implies the
  // rho1-to-rho2 guarantee (Section II-B), so the combined bound takes the
  // better of the two theorem routes. It is often *strictly* better than
  // Theorem 2 alone (the reverse implication does not hold).
  for (double p : {0.15, 0.3, 0.45}) {
    for (int k : {2, 6, 10}) {
      PgParams params = Paper(p, k);
      const double combined = CombinedMinRho2(params, kPaperRho1);
      EXPECT_LE(combined, MinRho2(params, kPaperRho1) + 1e-12);
      EXPECT_LE(combined, kPaperRho1 + MinDelta(params) + 1e-12);
      EXPECT_GE(combined, kPaperRho1);
    }
  }
  // Concrete strict improvement at the Table III(a) corner.
  EXPECT_LT(CombinedMinRho2(Paper(0.3, 2), kPaperRho1),
            MinRho2(Paper(0.3, 2), kPaperRho1) - 1e-6);
}

TEST(GuaranteesTest, DownwardBreachGuarantee) {
  // Footnote 1: the downward floor is the complement of the upward bound
  // at the complemented prior.
  for (double p : {0.15, 0.3, 0.45}) {
    for (int k : {2, 6, 10}) {
      PgParams params = Paper(p, k);
      for (double rho1 : {0.3, 0.5, 0.8}) {
        const double floor = MaxDownwardRho2(params, rho1);
        EXPECT_NEAR(floor, 1.0 - MinRho2(params, 1.0 - rho1), 1e-12);
        // The floor can never exceed the prior threshold itself.
        EXPECT_LE(floor, rho1 + 1e-12);
        EXPECT_GE(floor, 0.0);
      }
    }
  }
  // p = 0: posterior == prior, so the floor equals rho1 exactly.
  EXPECT_NEAR(MaxDownwardRho2(Paper(0.0, 6), 0.5), 0.5, 1e-9);
}

TEST(GuaranteesTest, DownwardFloorWeakensWithP) {
  // More retention -> the adversary can also *lose* more confidence.
  double prev = 1.0;
  for (double p = 0.0; p <= 1.0; p += 0.1) {
    const double floor = MaxDownwardRho2(Paper(std::min(p, 1.0), 6), 0.6);
    EXPECT_LE(floor, prev + 1e-9);
    prev = floor;
  }
}

// ------------------------------------------------------------- Solvers

TEST(SolversTest, MaxRetentionForRhoRoundTrips) {
  for (int k : {2, 6, 10}) {
    for (double rho2 : {0.35, 0.45, 0.6}) {
      double p =
          MaxRetentionForRho(k, kPaperLambda, kPaperUs, kPaperRho1, rho2)
              .ValueOrDie();
      EXPECT_TRUE(SatisfiesRhoGuarantee(Paper(p, k), kPaperRho1, rho2));
      if (p < 1.0) {
        EXPECT_FALSE(SatisfiesRhoGuarantee(Paper(std::min(1.0, p + 1e-4), k),
                                           kPaperRho1, rho2));
      }
    }
  }
}

TEST(SolversTest, MaxRetentionForDeltaRoundTrips) {
  for (int k : {2, 6, 10}) {
    for (double delta : {0.1, 0.25, 0.4}) {
      double p = MaxRetentionForDelta(k, kPaperLambda, kPaperUs, delta)
                     .ValueOrDie();
      EXPECT_TRUE(SatisfiesDeltaGuarantee(Paper(p, k), delta));
      if (p < 1.0) {
        EXPECT_FALSE(
            SatisfiesDeltaGuarantee(Paper(std::min(1.0, p + 1e-4), k), delta));
      }
    }
  }
}

TEST(SolversTest, PaperTable3bConsistency) {
  // Solving for the Table III(b) guarantee at k = 6 should give back
  // (about) the p that generated it.
  double p = MaxRetentionForRho(6, kPaperLambda, kPaperUs, 0.2,
                                MinRho2(Paper(0.3, 6), 0.2))
                 .ValueOrDie();
  EXPECT_NEAR(p, 0.3, 1e-6);
}

TEST(SolversTest, InfeasibleTargets) {
  EXPECT_TRUE(MaxRetentionForRho(6, 0.1, 50, 0.5, 0.4)
                  .status()
                  .IsInvalidArgument());  // rho2 < rho1
  EXPECT_TRUE(MaxRetentionForDelta(6, 0.1, 50, 0.0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(MaxRetentionForDelta(6, 0.1, 50, 1.5)
                  .status()
                  .IsInvalidArgument());
}

TEST(SolversTest, TrivialTargetsAllowFullRetention) {
  // A 1.0-growth "guarantee" is vacuous: any p works.
  EXPECT_NEAR(
      MaxRetentionForDelta(2, kPaperLambda, kPaperUs, 1.0).ValueOrDie(),
      1.0, 1e-12);
}

TEST(SolversTest, MinKForRho) {
  // At p=0.3, lambda=0.1, us=50 the k=6 bound is 0.4504 (Table III prints
  // 0.45 after rounding); a 0.46 target is first met at k=6.
  EXPECT_EQ(*MinKForRho(0.3, kPaperLambda, kPaperUs, 0.2, 0.46, 100), 6);
  EXPECT_TRUE(MinKForRho(1.0, 0.5, 2, 0.2, 0.3, 4).status().IsNotFound());
}

TEST(SolversTest, MinKForDelta) {
  // Table III(a): delta=0.24 first achievable at k=6 for p=0.3.
  EXPECT_EQ(*MinKForDelta(0.3, kPaperLambda, kPaperUs, 0.24, 100), 6);
  EXPECT_EQ(*MinKForDelta(0.3, kPaperLambda, kPaperUs, 0.47, 100), 2);
}

}  // namespace
}  // namespace pgpub
