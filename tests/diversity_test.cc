#include <gtest/gtest.h>

#include "diversity/ldiversity.h"

namespace pgpub {
namespace {

// ----------------------------------------------------- DistinctLDiversity

TEST(DistinctLDiversityTest, CountsDistinctValues) {
  DistinctLDiversity l2(2);
  EXPECT_TRUE(l2.Satisfied({3, 1, 0}));
  EXPECT_FALSE(l2.Satisfied({4, 0, 0}));
  EXPECT_FALSE(l2.Satisfied({0, 0, 0}));
  DistinctLDiversity l1(1);
  EXPECT_TRUE(l1.Satisfied({1, 0}));
}

TEST(DistinctLDiversityTest, Name) {
  EXPECT_EQ(DistinctLDiversity(3).name(), "distinct 3-diversity");
}

// ------------------------------------------------------------ CLDiversity

TEST(CLDiversityTest, PaperFigure1Example) {
  // Figure 1: group of 11 tuples, l' = 6 distinct values with counts
  // 3,2,2,2,1,1 — satisfies (1/2, 3)-diversity: 3 <= 0.5*(2+2+1+1).
  CLDiversity half3(0.5, 3);
  EXPECT_TRUE(half3.Satisfied({3, 2, 2, 2, 1, 1}));
}

TEST(CLDiversityTest, ViolatedWhenTopValueTooFrequent) {
  CLDiversity half3(0.5, 3);
  // counts 5,2,2,1,1: tail from l=3 is 2+1+1=4; 5 > 0.5*4.
  EXPECT_FALSE(half3.Satisfied({5, 2, 2, 1, 1}));
}

TEST(CLDiversityTest, RequiresAtLeastLDistinct) {
  CLDiversity c(2.0, 3);
  EXPECT_FALSE(c.Satisfied({4, 4, 0}));  // only 2 distinct
}

TEST(CLDiversityTest, HistogramOrderIrrelevant) {
  CLDiversity half3(0.5, 3);
  EXPECT_TRUE(half3.Satisfied({1, 3, 2, 1, 2, 2}));
  EXPECT_TRUE(half3.Satisfied({2, 1, 2, 3, 1, 2}));
}

TEST(CLDiversityTest, CeilingAndAssumedPrior) {
  CLDiversity half3(0.5, 3);
  EXPECT_NEAR(half3.PosteriorCeiling(), 1.0 / 3.0, 1e-12);
  // Equation 2 with |U^s| = 100, l = 3: 1/99.
  EXPECT_NEAR(half3.AssumedPrior(100), 1.0 / 99.0, 1e-12);
}

TEST(CLDiversityTest, PaperSection3Example) {
  // The adversary knows o1 lacks HIV; the group of Figure 1 has 3
  // pneumonia among 9 non-HIV tuples: posterior 1/3 = c/(c+1) ceiling.
  CLDiversity half3(0.5, 3);
  const double posterior = 3.0 / 9.0;
  EXPECT_LE(posterior, half3.PosteriorCeiling() + 1e-12);
}

// ------------------------------------------------------------- Lemma 1

TEST(Lemma1Test, PriorFloorMatchesPaperNumbers) {
  // Section III-A example: u = 6, l = 3, |U^s| = 100 -> 5/99.
  EXPECT_NEAR(Lemma1PriorFloor(6, 3, 100), 5.0 / 99.0, 1e-12);
}

TEST(Lemma1Test, FloorIsSmallForLargeDomains) {
  EXPECT_LT(Lemma1PriorFloor(4, 2, 1000), 0.005);
}

TEST(MinDistinctSensitiveTest, ComputesGroupMinimum) {
  Schema schema;
  schema.AddAttribute(
      {"q", AttributeType::kNumeric, AttributeRole::kQuasiIdentifier});
  schema.AddAttribute(
      {"s", AttributeType::kNumeric, AttributeRole::kSensitive});
  std::vector<AttributeDomain> domains = {AttributeDomain::Numeric(0, 1),
                                          AttributeDomain::Numeric(0, 3)};
  // Group q=0 has sensitive {0,1,2}; group q=1 has {3,3}.
  Table t = Table::Create(schema, domains,
                          {{0, 0, 0, 1, 1}, {0, 1, 2, 3, 3}})
                .ValueOrDie();
  GlobalRecoding rec = GlobalRecoding::AllIdentity(t, {0});
  QiGroups g = ComputeQiGroups(t, rec);
  EXPECT_EQ(MinDistinctSensitive(t, g, 1), 1);
}

}  // namespace
}  // namespace pgpub
