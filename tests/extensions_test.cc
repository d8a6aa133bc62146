/// Tests for the extension modules: recoding serialization and the TDS
/// scoring ablation switch.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "datagen/census.h"
#include "generalize/metrics.h"
#include "generalize/tds.h"
#include "hierarchy/recoding_io.h"
#include "mining/evaluate.h"

namespace pgpub {
namespace {

// ------------------------------------------------------------ recoding IO

TEST(RecodingIoTest, RoundTrip) {
  GlobalRecoding recoding;
  recoding.qi_attrs = {0, 2, 5};
  recoding.per_attr = {
      AttributeRecoding::FromStarts(10, {0, 3, 7}).ValueOrDie(),
      AttributeRecoding::Single(4),
      AttributeRecoding::Identity(3)};
  const std::string path = ::testing::TempDir() + "/pgpub_recoding.txt";
  ASSERT_TRUE(SaveRecoding(recoding, path).ok());
  GlobalRecoding loaded = LoadRecoding(path).ValueOrDie();
  ASSERT_EQ(loaded.qi_attrs, recoding.qi_attrs);
  ASSERT_EQ(loaded.per_attr.size(), recoding.per_attr.size());
  for (size_t i = 0; i < recoding.per_attr.size(); ++i) {
    EXPECT_EQ(loaded.per_attr[i].starts(), recoding.per_attr[i].starts());
    EXPECT_EQ(loaded.per_attr[i].domain_size(),
              recoding.per_attr[i].domain_size());
  }
  std::remove(path.c_str());
}

TEST(RecodingIoTest, RejectsCorruptFiles) {
  const std::string path = ::testing::TempDir() + "/pgpub_bad_recoding.txt";
  {
    std::ofstream out(path);
    out << "not a recoding\n";
  }
  EXPECT_TRUE(LoadRecoding(path).status().IsInvalidArgument());
  {
    std::ofstream out(path);
    out << "pgpub-recoding v1\nattrs 1\nattr 0 10 2 0\n";  // truncated starts
  }
  EXPECT_TRUE(LoadRecoding(path).status().IsInvalidArgument());
  {
    std::ofstream out(path);
    out << "pgpub-recoding v1\nattrs 1\nattr 0 10 2 0 3 9\n";  // trailing
  }
  EXPECT_TRUE(LoadRecoding(path).status().IsInvalidArgument());
  std::remove(path.c_str());
  EXPECT_TRUE(LoadRecoding("/no/such/file").status().IsIOError());
}

TEST(RecodingIoTest, RoundTripFromPublisherOutput) {
  CensusDataset census = GenerateCensus(3000, 61).ValueOrDie();
  const std::vector<int> qi = census.table.schema().QiIndices();
  TdsOptions options;
  options.k = 4;
  TopDownSpecializer tds(census.table, qi, census.TaxonomyPointers(),
                         census.table.column(CensusColumns::kIncome), 50,
                         options);
  GlobalRecoding recoding = tds.Run().ValueOrDie();
  const std::string path = ::testing::TempDir() + "/pgpub_tds_recoding.txt";
  ASSERT_TRUE(SaveRecoding(recoding, path).ok());
  GlobalRecoding loaded = LoadRecoding(path).ValueOrDie();
  // The loaded recoding groups the table identically.
  QiGroups a = ComputeQiGroups(census.table, recoding);
  QiGroups b = ComputeQiGroups(census.table, loaded);
  EXPECT_EQ(a.row_to_group, b.row_to_group);
  std::remove(path.c_str());
}

// ----------------------------------------------------- TDS scoring ablation

TEST(TdsAblationTest, BalanceAwareScoringImprovesEffectiveSampleSize) {
  CensusDataset census = GenerateCensus(60000, 73).ValueOrDie();
  const std::vector<int> qi = census.table.schema().QiIndices();
  CategoryMap cats = CategoryMap::PaperIncome(2);
  std::vector<int32_t> labels =
      cats.Map(census.table.column(CensusColumns::kIncome));

  auto run = [&](bool balance_aware) {
    TdsOptions options;
    options.k = 6;
    options.balance_aware = balance_aware;
    TopDownSpecializer tds(census.table, qi, census.TaxonomyPointers(),
                           labels, 2, options);
    GlobalRecoding recoding = tds.Run().ValueOrDie();
    QiGroups groups = ComputeQiGroups(census.table, recoding);
    double sw = 0, sw2 = 0;
    for (const auto& g : groups.group_rows) {
      const double s = static_cast<double>(g.size());
      sw += s;
      sw2 += s * s;
    }
    return sw * sw / sw2;  // Kish ESS of the released strata
  };
  const double ess_balanced = run(true);
  const double ess_greedy = run(false);
  EXPECT_GT(ess_balanced, ess_greedy * 1.5)
      << "balanced=" << ess_balanced << " greedy=" << ess_greedy;
  // Both remain valid k-anonymous recodings (checked inside run by TDS).
}

}  // namespace
}  // namespace pgpub
