#include <gtest/gtest.h>

#include "attack/adversaries.h"
#include "attack/publishers.h"
#include "attack/scenario.h"
#include "core/pg_publisher.h"
#include "datagen/census.h"
#include "diversity/ldiversity.h"
#include "generalize/tds.h"

namespace pgpub {
namespace {

// A fixed release attacked by the corruption-linking adversary through
// the scenario framework.
Result<BreachStats> RunPgScenario(const PublishedTable& published,
                                  const ExternalDatabase& edb,
                                  const Table& microdata,
                                  const BreachHarnessOptions& options) {
  ScenarioDataset dataset;
  dataset.name = "census";
  dataset.microdata = &microdata;
  dataset.sensitive_attr = published.sensitive_attr();
  dataset.edb = &edb;
  ScenarioOptions scenario;
  scenario.harness = options;
  FixedPgRelease publisher(&published);
  CorruptionLinkingAdversary adversary;
  return BreachScenario::Run(publisher, adversary, dataset, scenario);
}

Result<BreachStats> RunGenScenario(const Table& microdata,
                                   const QiGroups& groups, int sensitive_attr,
                                   const BreachHarnessOptions& options) {
  ScenarioDataset dataset;
  dataset.name = "census";
  dataset.microdata = &microdata;
  dataset.sensitive_attr = sensitive_attr;
  ScenarioOptions scenario;
  scenario.harness = options;
  FixedGeneralizationRelease publisher(&groups);
  CorruptionLinkingAdversary adversary;
  return BreachScenario::Run(publisher, adversary, dataset, scenario);
}

struct BreachFixture {
  CensusDataset census = GenerateCensus(8000, 21).ValueOrDie();
  PublishedTable published;
  ExternalDatabase edb;

  explicit BreachFixture(double p = 0.3, int k = 4) {
    PgOptions options;
    options.k = k;
    options.p = p;
    options.seed = 31;
    PgPublisher publisher(options);
    published =
        publisher.Publish(census.table, census.TaxonomyPointers())
            .ValueOrDie();
    Rng rng(32);
    edb = ExternalDatabase::FromMicrodata(census.table, 800, rng);
  }
};

TEST(BreachHarnessTest, RejectsInfeasibleOptions) {
  BreachFixture f;
  BreachHarnessOptions options;
  options.rho1 = 1.5;  // must be in (0,1)
  EXPECT_TRUE(RunPgScenario(f.published, f.edb, f.census.table, options)
                  .status()
                  .IsInvalidArgument());
  options.rho1 = 0.2;
  options.corruption_rate = -0.1;
  EXPECT_TRUE(RunPgScenario(f.published, f.edb, f.census.table, options)
                  .status()
                  .IsInvalidArgument());
  options.corruption_rate = 0.5;
  options.lambda = 0.0;
  EXPECT_TRUE(RunPgScenario(f.published, f.edb, f.census.table, options)
                  .status()
                  .IsInvalidArgument());
}

class CorruptionSweep : public ::testing::TestWithParam<double> {};

TEST_P(CorruptionSweep, PgNeverBreachesTheoremBounds) {
  const double rate = GetParam();
  BreachFixture f;
  BreachHarnessOptions options;
  options.num_victims = 120;
  options.corruption_rate = rate;
  options.lambda = 0.1;
  options.rho1 = 0.2;
  options.seed = 100 + static_cast<uint64_t>(rate * 100);
  options.prior_kind = BreachHarnessOptions::PriorKind::kSkewTrue;

  BreachStats stats =
      RunPgScenario(f.published, f.edb, f.census.table, options).ValueOrDie();
  EXPECT_EQ(stats.attacks, options.num_victims);
  EXPECT_EQ(stats.delta_breaches, 0u) << "corruption=" << rate;
  EXPECT_EQ(stats.rho_breaches, 0u) << "corruption=" << rate;
  EXPECT_LE(stats.max_h, stats.h_top + 1e-9);
  EXPECT_LE(stats.max_growth, stats.delta_bound + 1e-9);
  EXPECT_LE(stats.max_posterior_rho1, stats.rho2_bound + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Rates, CorruptionSweep,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));

class PriorKindSweep
    : public ::testing::TestWithParam<BreachHarnessOptions::PriorKind> {};

TEST_P(PriorKindSweep, NoBreachUnderAnyHarnessPrior) {
  BreachFixture f;
  BreachHarnessOptions options;
  options.num_victims = 100;
  options.corruption_rate = 1.0;  // worst case: everyone else corrupted
  options.lambda = 0.1;
  options.prior_kind = GetParam();
  options.seed = 9;
  BreachStats stats =
      RunPgScenario(f.published, f.edb, f.census.table, options).ValueOrDie();
  EXPECT_EQ(stats.delta_breaches, 0u);
  EXPECT_EQ(stats.rho_breaches, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, PriorKindSweep,
    ::testing::Values(BreachHarnessOptions::PriorKind::kUniform,
                      BreachHarnessOptions::PriorKind::kSkewTrue,
                      BreachHarnessOptions::PriorKind::kRandom));

TEST(BreachHarnessTest, GrowthIsPositiveUnderStrongCorruption) {
  // Sanity: the harness is not vacuous — adversaries do learn something,
  // just never more than the bound.
  BreachFixture f;
  BreachHarnessOptions options;
  options.num_victims = 150;
  options.corruption_rate = 1.0;
  options.lambda = 0.1;
  options.seed = 11;
  BreachStats stats =
      RunPgScenario(f.published, f.edb, f.census.table, options).ValueOrDie();
  EXPECT_GT(stats.max_growth, 0.0);
  EXPECT_GT(stats.max_h, 0.0);
}

TEST(BreachHarnessTest, LowerRetentionLowersGrowth) {
  BreachHarnessOptions options;
  options.num_victims = 150;
  options.corruption_rate = 1.0;
  options.lambda = 0.1;
  options.seed = 13;

  BreachFixture strong(0.1, 4);
  BreachFixture weak(0.6, 4);
  BreachStats s_strong = RunPgScenario(strong.published, strong.edb,
                                       strong.census.table, options).ValueOrDie();
  BreachStats s_weak =
      RunPgScenario(weak.published, weak.edb, weak.census.table, options).ValueOrDie();
  EXPECT_LT(s_strong.max_growth, s_weak.max_growth);
  EXPECT_LT(s_strong.delta_bound, s_weak.delta_bound);
}

// ------------------------------------- conventional generalization failure

TEST(GeneralizationBreachTest, FullCorruptionCausesCertainDisclosure) {
  // Lemma 2 empirically: with corruption of every other group member the
  // conventional release hands the adversary the exact sensitive value.
  CensusDataset census = GenerateCensus(6000, 41).ValueOrDie();
  const int sens = CensusColumns::kIncome;
  const std::vector<int> qi = census.table.schema().QiIndices();
  TdsOptions tds_options;
  tds_options.k = 4;
  TopDownSpecializer tds(census.table, qi, census.TaxonomyPointers(),
                         census.table.column(sens), 50, tds_options);
  GlobalRecoding recoding = tds.Run().ValueOrDie();
  QiGroups groups = ComputeQiGroups(census.table, recoding);

  BreachHarnessOptions options;
  options.num_victims = 100;
  options.corruption_rate = 1.0;
  options.lambda = 0.1;
  options.prior_kind = BreachHarnessOptions::PriorKind::kUniform;
  options.seed = 17;
  BreachStats stats = RunGenScenario(
      census.table, groups, sens, options).ValueOrDie();
  // Every attack ends in a point mass (the victim's value disclosed).
  EXPECT_EQ(stats.point_mass_disclosures, stats.attacks);
  // Growth approaches 1 - 1/|U^s|.
  EXPECT_GT(stats.max_growth, 0.9);
}

TEST(GeneralizationBreachTest, PgBeatsGeneralizationUnderCorruption) {
  CensusDataset census = GenerateCensus(6000, 43).ValueOrDie();
  const int sens = CensusColumns::kIncome;
  const std::vector<int> qi = census.table.schema().QiIndices();
  TdsOptions tds_options;
  tds_options.k = 4;
  TopDownSpecializer tds(census.table, qi, census.TaxonomyPointers(),
                         census.table.column(sens), 50, tds_options);
  GlobalRecoding recoding = tds.Run().ValueOrDie();
  QiGroups groups = ComputeQiGroups(census.table, recoding);

  PgOptions pg_options;
  pg_options.k = 4;
  pg_options.p = 0.3;
  pg_options.seed = 44;
  PgPublisher publisher(pg_options);
  PublishedTable published =
      publisher.Publish(census.table, census.TaxonomyPointers())
          .ValueOrDie();
  Rng rng(45);
  ExternalDatabase edb =
      ExternalDatabase::FromMicrodata(census.table, 0, rng);

  BreachHarnessOptions options;
  options.num_victims = 120;
  options.corruption_rate = 1.0;
  options.lambda = 0.1;
  options.seed = 46;
  BreachStats gen = RunGenScenario(
      census.table, groups, sens, options).ValueOrDie();
  BreachStats pg = RunPgScenario(published, edb, census.table, options).ValueOrDie();
  EXPECT_GT(gen.max_growth, pg.max_growth + 0.3);
}

TEST(GeneralizationBreachTest, NoCorruptionStillLeaksLemma1Style) {
  // Even without corruption, conventional generalization can produce
  // growth far beyond PG's Theorem 3 bound (Lemma 1's message).
  CensusDataset census = GenerateCensus(6000, 47).ValueOrDie();
  const int sens = CensusColumns::kIncome;
  const std::vector<int> qi = census.table.schema().QiIndices();
  TdsOptions tds_options;
  tds_options.k = 4;
  TopDownSpecializer tds(census.table, qi, census.TaxonomyPointers(),
                         census.table.column(sens), 50, tds_options);
  QiGroups groups =
      ComputeQiGroups(census.table, tds.Run().ValueOrDie());

  BreachHarnessOptions options;
  options.num_victims = 200;
  options.corruption_rate = 0.0;
  options.lambda = 0.1;
  options.prior_kind = BreachHarnessOptions::PriorKind::kUniform;
  options.seed = 48;
  BreachStats stats = RunGenScenario(
      census.table, groups, sens, options).ValueOrDie();
  PgParams pg_params{0.3, 4, 0.1, 50};
  EXPECT_GT(stats.max_growth, MinDelta(pg_params));
}

}  // namespace
}  // namespace pgpub
