#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/pg_publisher.h"
#include "datagen/census.h"
#include "datagen/hospital.h"
#include "generalize/metrics.h"

namespace pgpub {
namespace {

CensusDataset SmallCensus(size_t n = 5000, uint64_t seed = 99) {
  return GenerateCensus(n, seed).ValueOrDie();
}

PublishedTable PublishCensus(const CensusDataset& census, PgOptions options) {
  options.keep_provenance = true;
  PgPublisher publisher(options);
  return publisher.Publish(census.table, census.TaxonomyPointers())
      .ValueOrDie();
}

// ------------------------------------------------------------ parameters

TEST(PgPublisherTest, EffectiveKFromS) {
  PgOptions options;
  options.s = 0.5;
  EXPECT_EQ(*PgPublisher::EffectiveK(options), 2);
  options.s = 0.3;
  EXPECT_EQ(*PgPublisher::EffectiveK(options), 4);  // ceil(1/0.3)
  options.s = 1.0;
  EXPECT_EQ(*PgPublisher::EffectiveK(options), 1);
  options.k = 7;
  EXPECT_EQ(*PgPublisher::EffectiveK(options), 7);  // k overrides s
  options.k = 0;
  options.s = 0.0;
  EXPECT_TRUE(PgPublisher::EffectiveK(options).status().IsInvalidArgument());
  options.s = 1.5;
  EXPECT_TRUE(PgPublisher::EffectiveK(options).status().IsInvalidArgument());
}

TEST(PgPublisherTest, EffectiveRetentionDirectAndSolved) {
  PgOptions options;
  options.p = 0.3;
  EXPECT_DOUBLE_EQ(*PgPublisher::EffectiveRetention(options, 6, 50), 0.3);
  options.p = 1.5;
  EXPECT_TRUE(PgPublisher::EffectiveRetention(options, 6, 50)
                  .status()
                  .IsInvalidArgument());
  options.p = -1.0;
  options.target.kind = PrivacyTarget::Kind::kNone;
  EXPECT_TRUE(PgPublisher::EffectiveRetention(options, 6, 50)
                  .status()
                  .IsInvalidArgument());
  options.target.kind = PrivacyTarget::Kind::kDelta;
  options.target.delta = 0.24;
  options.target.lambda = 0.1;
  double p = *PgPublisher::EffectiveRetention(options, 6, 50);
  EXPECT_TRUE(SatisfiesDeltaGuarantee({p, 6, 0.1, 50}, 0.24));
}

TEST(PgPublisherTest, EffectiveKRejectsNegativeKAndNonFiniteS) {
  PgOptions options;
  options.k = -1;
  EXPECT_TRUE(PgPublisher::EffectiveK(options).status().IsInvalidArgument());
  options.k = 0;
  options.s = std::nan("");
  EXPECT_TRUE(PgPublisher::EffectiveK(options).status().IsInvalidArgument());
}

TEST(PgPublisherTest, EffectiveRetentionRejectsDegenerateInputs) {
  PgOptions options;
  options.p = 0.3;
  // Even a direct p needs a sane k and sensitive domain.
  EXPECT_TRUE(PgPublisher::EffectiveRetention(options, 0, 50)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(PgPublisher::EffectiveRetention(options, 6, 1)
                  .status()
                  .IsInvalidArgument());
  options.p = std::nan("");
  EXPECT_TRUE(PgPublisher::EffectiveRetention(options, 6, 50)
                  .status()
                  .IsInvalidArgument());
}

TEST(PgPublisherTest, EffectiveRetentionRejectsBadTargets) {
  PgOptions options;
  options.p = -1.0;
  options.target.lambda = 0.1;

  options.target.kind = PrivacyTarget::Kind::kRho;
  options.target.rho1 = 0.5;
  options.target.rho2 = 0.3;  // rho1 >= rho2
  EXPECT_TRUE(PgPublisher::EffectiveRetention(options, 6, 50)
                  .status()
                  .IsInvalidArgument());
  options.target.rho2 = 0.5;
  EXPECT_TRUE(PgPublisher::EffectiveRetention(options, 6, 50)
                  .status()
                  .IsInvalidArgument());

  options.target.kind = PrivacyTarget::Kind::kDelta;
  options.target.delta = 0.0;  // delta <= 0
  EXPECT_TRUE(PgPublisher::EffectiveRetention(options, 6, 50)
                  .status()
                  .IsInvalidArgument());
  options.target.delta = -0.2;
  EXPECT_TRUE(PgPublisher::EffectiveRetention(options, 6, 50)
                  .status()
                  .IsInvalidArgument());

  options.target.delta = 0.24;
  options.target.lambda = 1.5;  // adversary skew out of (0,1]
  EXPECT_TRUE(PgPublisher::EffectiveRetention(options, 6, 50)
                  .status()
                  .IsInvalidArgument());
}

// -------------------------------------------------------------- pipeline

TEST(PgPublisherTest, CardinalityRequirement) {
  CensusDataset census = SmallCensus();
  for (double s : {0.5, 0.25, 0.1}) {
    PgOptions options;
    options.s = s;
    options.p = 0.3;
    PublishedTable published = PublishCensus(census, options);
    EXPECT_LE(published.num_rows(),
              static_cast<size_t>(census.table.num_rows() * s) + 1)
        << "s=" << s;
  }
}

TEST(PgPublisherTest, PropertyG2EveryPublishedCellCoversAtLeastK) {
  CensusDataset census = SmallCensus();
  PgOptions options;
  options.k = 8;
  options.p = 0.3;
  PublishedTable published = PublishCensus(census, options);
  // Recompute groups from the released recoding: every published tuple's
  // G must equal its cell's microdata population, which must be >= k.
  QiGroups groups = ComputeQiGroups(census.table, published.recoding());
  EXPECT_TRUE(IsKAnonymous(groups, 8));
  EXPECT_EQ(groups.num_groups(), published.num_rows());
  for (size_t r = 0; r < published.num_rows(); ++r) {
    EXPECT_GE(published.group_size(r), 8u);
  }
}

TEST(PgPublisherTest, PublishedSignaturesAreUnique) {
  CensusDataset census = SmallCensus();
  PgOptions options;
  options.k = 4;
  options.p = 0.25;
  PublishedTable published = PublishCensus(census, options);
  std::set<std::vector<int32_t>> seen;
  for (size_t r = 0; r < published.num_rows(); ++r) {
    std::vector<int32_t> sig;
    for (int i = 0; i < published.num_qi_attrs(); ++i) {
      sig.push_back(published.qi_gen(r, i));
    }
    EXPECT_TRUE(seen.insert(sig).second) << "duplicate QI-vector";
  }
}

TEST(PgPublisherTest, ProvenanceIsConsistent) {
  CensusDataset census = SmallCensus();
  PgOptions options;
  options.k = 5;
  options.p = 0.4;
  PublishedTable published = PublishCensus(census, options);
  ASSERT_TRUE(published.provenance().has_value());
  const auto& prov = *published.provenance();
  ASSERT_EQ(prov.source_row.size(), published.num_rows());
  ASSERT_EQ(prov.group_members.size(), published.num_rows());
  for (size_t r = 0; r < published.num_rows(); ++r) {
    // The sampled row is a member of its group.
    const auto& members = prov.group_members[r];
    EXPECT_NE(std::find(members.begin(), members.end(), prov.source_row[r]),
              members.end());
    EXPECT_EQ(members.size(), published.group_size(r));
    // Every member generalizes to the published tuple (G1/G2).
    for (uint32_t m : members) {
      std::vector<int32_t> qi_codes;
      for (int a : published.recoding().qi_attrs) {
        qi_codes.push_back(census.table.value(m, a));
      }
      EXPECT_EQ(*published.CrucialTuple(qi_codes), r);
    }
  }
}

TEST(PgPublisherTest, PerturbationStatisticsMatchP) {
  // With provenance we can compare released sensitive values to the
  // originals: the retention fraction must be about p + (1-p)/|U^s|.
  CensusDataset census = SmallCensus(20000, 3);
  PgOptions options;
  options.k = 2;
  options.p = 0.3;
  PublishedTable published = PublishCensus(census, options);
  const auto& prov = *published.provenance();
  size_t kept = 0;
  for (size_t r = 0; r < published.num_rows(); ++r) {
    if (published.sensitive(r) ==
        census.table.value(prov.source_row[r], CensusColumns::kIncome)) {
      ++kept;
    }
  }
  const double expected = 0.3 + 0.7 / 50.0;
  EXPECT_NEAR(kept / static_cast<double>(published.num_rows()), expected,
              0.03);
}

TEST(PgPublisherTest, SameSeedSameRelease) {
  CensusDataset census = SmallCensus();
  PgOptions options;
  options.k = 4;
  options.p = 0.3;
  options.seed = 1234;
  PublishedTable a = PublishCensus(census, options);
  PublishedTable b = PublishCensus(census, options);
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    EXPECT_EQ(a.sensitive(r), b.sensitive(r));
    EXPECT_EQ(a.group_size(r), b.group_size(r));
  }
}

TEST(PgPublisherTest, DifferentSeedsPerturbDifferently) {
  CensusDataset census = SmallCensus();
  PgOptions options;
  options.k = 4;
  options.p = 0.3;
  options.seed = 1;
  PublishedTable a = PublishCensus(census, options);
  options.seed = 2;
  PublishedTable b = PublishCensus(census, options);
  size_t diffs = 0;
  const size_t n = std::min(a.num_rows(), b.num_rows());
  for (size_t r = 0; r < n; ++r) {
    if (a.sensitive(r) != b.sensitive(r)) ++diffs;
  }
  EXPECT_GT(diffs, 0u);
}

TEST(PgPublisherTest, IncognitoGeneralizerWorksOnNarrowQi) {
  // Build a 3-QI subset so the full-domain lattice is small.
  CensusDataset census = SmallCensus(3000, 5);
  Schema schema;
  schema.AddAttribute(
      {"Age", AttributeType::kNumeric, AttributeRole::kQuasiIdentifier});
  schema.AddAttribute(
      {"Gender", AttributeType::kCategorical,
       AttributeRole::kQuasiIdentifier});
  schema.AddAttribute(
      {"Income", AttributeType::kNumeric, AttributeRole::kSensitive});
  std::vector<AttributeDomain> domains = {
      census.table.domain(CensusColumns::kAge),
      census.table.domain(CensusColumns::kGender),
      census.table.domain(CensusColumns::kIncome)};
  std::vector<std::vector<int32_t>> cols = {
      census.table.column(CensusColumns::kAge),
      census.table.column(CensusColumns::kGender),
      census.table.column(CensusColumns::kIncome)};
  Table narrow =
      Table::Create(schema, domains, std::move(cols)).ValueOrDie();

  PgOptions options;
  options.k = 10;
  options.p = 0.3;
  options.generalizer = PgOptions::Generalizer::kIncognito;
  PgPublisher publisher(options);
  PublishedTable published =
      publisher.Publish(narrow, {&census.taxonomies[CensusColumns::kAge],
                                 &census.taxonomies[CensusColumns::kGender]})
          .ValueOrDie();
  QiGroups groups = ComputeQiGroups(narrow, published.recoding());
  EXPECT_TRUE(IsKAnonymous(groups, 10));
}

TEST(PgPublisherTest, HospitalRunningExample) {
  HospitalDataset hospital = MakeHospitalDataset().ValueOrDie();
  PgOptions options;
  options.s = 0.5;
  options.p = 0.25;
  options.seed = 2008;
  PgPublisher publisher(options);
  PublishedTable published =
      publisher.Publish(hospital.table, hospital.TaxonomyPointers())
          .ValueOrDie();
  EXPECT_LE(published.num_rows(), 4u);  // |D| * s = 4
  EXPECT_EQ(published.k(), 2);
  for (size_t r = 0; r < published.num_rows(); ++r) {
    EXPECT_GE(published.group_size(r), 2u);
  }
}

TEST(PgPublisherTest, CrucialTupleFindsVictims) {
  HospitalDataset hospital = MakeHospitalDataset().ValueOrDie();
  PgOptions options;
  options.s = 0.5;
  options.p = 0.25;
  options.seed = 2008;
  PgPublisher publisher(options);
  PublishedTable published =
      publisher.Publish(hospital.table, hospital.TaxonomyPointers())
          .ValueOrDie();
  // Every microdata member has exactly one crucial tuple.
  for (size_t r = 0; r < hospital.table.num_rows(); ++r) {
    std::vector<int32_t> qi = {hospital.table.value(r, 0),
                               hospital.table.value(r, 1),
                               hospital.table.value(r, 2)};
    EXPECT_TRUE(published.CrucialTuple(qi).ok()) << hospital.owners[r];
  }
  // Width mismatch rejected.
  EXPECT_TRUE(published.CrucialTuple({1, 2}).status().IsInvalidArgument());
}

TEST(PgPublisherTest, ToCsvWritesRelease) {
  HospitalDataset hospital = MakeHospitalDataset().ValueOrDie();
  PgOptions options;
  options.s = 0.5;
  options.p = 0.25;
  PgPublisher publisher(options);
  PublishedTable published =
      publisher.Publish(hospital.table, hospital.TaxonomyPointers())
          .ValueOrDie();
  const std::string path = ::testing::TempDir() + "/pgpub_release.csv";
  ASSERT_TRUE(published.ToCsv(path, hospital.TaxonomyPointers()).ok());
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "Age,Gender,Zipcode,Disease,G");
  size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, published.num_rows());
  std::remove(path.c_str());
}

// ----------------------------------------------------------- error paths

TEST(PgPublisherTest, RejectsWrongTaxonomyCount) {
  CensusDataset census = SmallCensus(500, 6);
  PgOptions options;
  options.k = 2;
  options.p = 0.5;
  PgPublisher publisher(options);
  EXPECT_TRUE(publisher.Publish(census.table, {})
                  .status()
                  .IsInvalidArgument());
  // The right count with a null entry is rejected the same way.
  std::vector<const Taxonomy*> with_null = census.TaxonomyPointers();
  with_null[1] = nullptr;
  EXPECT_TRUE(publisher.Publish(census.table, with_null)
                  .status()
                  .IsInvalidArgument());
}

TEST(PgPublisherTest, RejectsTablesWithoutSensitiveAttribute) {
  Schema schema;
  schema.AddAttribute(
      {"q", AttributeType::kNumeric, AttributeRole::kQuasiIdentifier});
  Table t = Table::Create(schema, {AttributeDomain::Numeric(0, 3)},
                          {{0, 1, 2}})
                .ValueOrDie();
  PgOptions options;
  options.p = 0.5;
  PgPublisher publisher(options);
  const Taxonomy q = Taxonomy::Binary(4, "*");
  EXPECT_TRUE(publisher.Publish(t, {&q})
                  .status()
                  .IsFailedPrecondition());
}

TEST(PgPublisherTest, RejectsFewerRowsThanK) {
  HospitalDataset hospital = MakeHospitalDataset().ValueOrDie();
  PgOptions options;
  options.k = 100;
  options.p = 0.5;
  PgPublisher publisher(options);
  EXPECT_TRUE(publisher.Publish(hospital.table, hospital.TaxonomyPointers())
                  .status()
                  .IsFailedPrecondition());
}

TEST(PgPublisherTest, RejectsBadCategoryStarts) {
  CensusDataset census = SmallCensus(500, 7);
  PgOptions options;
  options.k = 2;
  options.p = 0.5;
  options.class_category_starts = {5, 25};  // must begin at 0
  PgPublisher publisher(options);
  EXPECT_TRUE(
      publisher.Publish(census.table, census.TaxonomyPointers())
          .status()
          .IsInvalidArgument());
  options.class_category_starts = {0, 60};  // beyond |U^s|
  PgPublisher publisher2(options);
  EXPECT_TRUE(
      publisher2.Publish(census.table, census.TaxonomyPointers())
          .status()
          .IsInvalidArgument());
}

}  // namespace
}  // namespace pgpub
