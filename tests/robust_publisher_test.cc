#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "core/robust_publisher.h"
#include "core/validate.h"
#include "core/verify.h"
#include "datagen/census.h"
#include "engine/publication_engine.h"
#include "hierarchy/taxonomy.h"

namespace pgpub {
namespace {

PgOptions SolvedOptions() {
  PgOptions options;
  options.s = 0.1;  // k = 10
  options.p = -1.0;
  options.target.kind = PrivacyTarget::Kind::kDelta;
  options.target.delta = 0.3;
  options.target.lambda = 0.1;
  return options;
}

// ------------------------------------------------------ ValidatePgOptions

TEST(ValidatePgOptionsTest, AcceptsPaperStyleConfigs) {
  EXPECT_TRUE(ValidatePgOptions(SolvedOptions(), 50).ok());
  PgOptions direct;
  direct.k = 6;
  direct.p = 0.3;
  EXPECT_TRUE(ValidatePgOptions(direct, 50).ok());
}

TEST(ValidatePgOptionsTest, RejectsBadCardinalityParameters) {
  PgOptions options;
  options.p = 0.3;
  for (double s : {0.0, -0.5, 1.5,
                   std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity()}) {
    options.s = s;
    EXPECT_TRUE(ValidatePgOptions(options, 50).IsInvalidArgument())
        << "s=" << s;
  }
  options.s = 0.5;
  options.k = -3;
  EXPECT_TRUE(ValidatePgOptions(options, 50).IsInvalidArgument());
}

TEST(ValidatePgOptionsTest, RejectsBadRetention) {
  PgOptions options;
  options.k = 6;
  for (double p : {1.01, std::numeric_limits<double>::quiet_NaN()}) {
    options.p = p;
    EXPECT_TRUE(ValidatePgOptions(options, 50).IsInvalidArgument())
        << "p=" << p;
  }
  options.p = -1.0;  // "solve for p" — but no target declared
  options.target.kind = PrivacyTarget::Kind::kNone;
  EXPECT_TRUE(ValidatePgOptions(options, 50).IsInvalidArgument());
}

TEST(ValidatePgOptionsTest, RejectsBadTargets) {
  PgOptions options = SolvedOptions();
  options.target.kind = PrivacyTarget::Kind::kRho;
  options.target.rho1 = 0.5;
  options.target.rho2 = 0.5;  // must grow
  EXPECT_TRUE(ValidatePgOptions(options, 50).IsInvalidArgument());
  options.target.rho1 = 0.0;
  options.target.rho2 = 0.5;
  EXPECT_TRUE(ValidatePgOptions(options, 50).IsInvalidArgument());
  options.target.rho1 = 0.2;
  options.target.rho2 = 1.5;
  EXPECT_TRUE(ValidatePgOptions(options, 50).IsInvalidArgument());

  options = SolvedOptions();
  for (double delta : {0.0, -0.2, 1.5}) {
    options.target.delta = delta;
    EXPECT_TRUE(ValidatePgOptions(options, 50).IsInvalidArgument())
        << "delta=" << delta;
  }

  options = SolvedOptions();
  for (double lambda : {0.0, -0.1, 1.2,
                        std::numeric_limits<double>::quiet_NaN()}) {
    options.target.lambda = lambda;
    EXPECT_TRUE(ValidatePgOptions(options, 50).IsInvalidArgument())
        << "lambda=" << lambda;
  }
}

TEST(ValidatePgOptionsTest, RejectsTinySensitiveDomain) {
  PgOptions options;
  options.k = 6;
  options.p = 0.3;
  EXPECT_TRUE(ValidatePgOptions(options, 1).IsInvalidArgument());
  EXPECT_TRUE(ValidatePgOptions(options, 0).IsInvalidArgument());
}

TEST(ValidatePgOptionsTest, RejectsBadCategoryStarts) {
  PgOptions options;
  options.k = 6;
  options.p = 0.3;
  options.class_category_starts = {5, 10};  // must start at 0
  EXPECT_TRUE(ValidatePgOptions(options, 50).IsInvalidArgument());
  options.class_category_starts = {0, 10, 10};  // must ascend strictly
  EXPECT_TRUE(ValidatePgOptions(options, 50).IsInvalidArgument());
  options.class_category_starts = {0, 60};  // beyond the domain
  EXPECT_TRUE(ValidatePgOptions(options, 50).IsInvalidArgument());
  options.class_category_starts = {0, 10, 25};
  EXPECT_TRUE(ValidatePgOptions(options, 50).ok());
}

// ------------------------------------------------------- ValidateTaxonomy

TEST(ValidateTaxonomyTest, AcceptsMatchingDomain) {
  Taxonomy taxonomy = Taxonomy::Binary(16, "root");
  EXPECT_TRUE(ValidateTaxonomy(taxonomy, 16).ok());
}

TEST(ValidateTaxonomyTest, RejectsDomainMismatch) {
  Taxonomy taxonomy = Taxonomy::Binary(16, "root");
  Status st = ValidateTaxonomy(taxonomy, 20);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

// ---------------------------------------------------- ValidatedDataset

// Only ValidateDataset makes a ValidatedDataset, and never over a
// temporary table (the result would dangle).
static_assert(!std::is_default_constructible_v<ValidatedDataset>);

template <typename TableArg, typename = void>
struct CanValidate : std::false_type {};
template <typename TableArg>
struct CanValidate<TableArg,
                   std::void_t<decltype(ValidateDataset(
                       std::declval<TableArg>(),
                       std::declval<const std::vector<const Taxonomy*>&>()))>>
    : std::true_type {};
static_assert(CanValidate<const Table&>::value);
static_assert(!CanValidate<Table&&>::value);

// -------------------------------------------------- ValidatePublishInputs

TEST(ValidatePublishInputsTest, AcceptsCensus) {
  CensusDataset census = GenerateCensus(800, 3).ValueOrDie();
  EXPECT_TRUE(
      ValidatePublishInputs(census.table, census.TaxonomyPointers(),
                            SolvedOptions())
          .ok());
}

TEST(ValidatePublishInputsTest, RejectsTaxonomyCountMismatch) {
  CensusDataset census = GenerateCensus(800, 3).ValueOrDie();
  std::vector<const Taxonomy*> taxonomies = census.TaxonomyPointers();
  taxonomies.pop_back();
  EXPECT_TRUE(
      ValidatePublishInputs(census.table, taxonomies, SolvedOptions())
          .IsInvalidArgument());
}

TEST(ValidatePublishInputsTest, RejectsTaxonomyDomainMismatch) {
  CensusDataset census = GenerateCensus(800, 3).ValueOrDie();
  std::vector<const Taxonomy*> taxonomies = census.TaxonomyPointers();
  Taxonomy wrong = Taxonomy::Binary(3, "wrong");
  // A wrong-width taxonomy and a missing (null) one alike.
  for (const Taxonomy* bad : {static_cast<const Taxonomy*>(&wrong),
                              static_cast<const Taxonomy*>(nullptr)}) {
    taxonomies[0] = bad;
    Status st =
        ValidatePublishInputs(census.table, taxonomies, SolvedOptions());
    EXPECT_TRUE(st.IsInvalidArgument());
    // The error names the offending attribute so operators can fix the
    // file.
    EXPECT_NE(st.message().find(census.table.schema().attribute(0).name),
              std::string::npos)
        << st.ToString();
  }
}

TEST(ValidatePublishInputsTest, RejectsTooFewRows) {
  CensusDataset census = GenerateCensus(8, 3).ValueOrDie();
  PgOptions options;
  options.k = 20;
  options.p = 0.3;
  EXPECT_TRUE(
      ValidatePublishInputs(census.table, census.TaxonomyPointers(), options)
          .IsFailedPrecondition());
}

// --------------------------------------------------------- RobustPublisher

TEST(RobustPublisherTest, AttemptSeedIsDeterministicAndStable) {
  EXPECT_EQ(RobustPublisher::AttemptSeed(0x5eed, 1), 0x5eedu);
  const uint64_t second = RobustPublisher::AttemptSeed(0x5eed, 2);
  EXPECT_NE(second, 0x5eedu);
  EXPECT_EQ(second, RobustPublisher::AttemptSeed(0x5eed, 2));
  EXPECT_NE(second, RobustPublisher::AttemptSeed(0x5eed, 3));
  EXPECT_NE(second, RobustPublisher::AttemptSeed(0x5eee, 2));
}

TEST(RobustPublisherTest, CleanPublishOnCensusIsAuditClean) {
  CensusDataset census = GenerateCensus(3000, 17).ValueOrDie();
  RobustPublisher publisher(SolvedOptions());
  PublishReport report;
  Result<PublishedTable> result =
      publisher.Publish(census.table, census.TaxonomyPointers(), &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ASSERT_EQ(report.attempts.size(), 1u);
  EXPECT_TRUE(report.attempts[0].outcome.ok());
  EXPECT_TRUE(report.attempts[0].audited);
  EXPECT_EQ(report.attempts[0].seed, SolvedOptions().seed);
  EXPECT_FALSE(report.fallback_used);
  EXPECT_TRUE(report.audit_clean);
  EXPECT_TRUE(report.final_status.ok());
  EXPECT_GT(report.total_ms, 0.0);

  EXPECT_TRUE(VerifyPublication(census.table, *result).ok());
  EXPECT_GE(result->k(), 10);

  std::string summary = report.Summary();
  EXPECT_NE(summary.find("succeeded"), std::string::npos) << summary;
  EXPECT_NE(summary.find("audit clean"), std::string::npos) << summary;
}

TEST(RobustPublisherTest, MatchesPgPublisherOnFirstAttempt) {
  CensusDataset census = GenerateCensus(1500, 5).ValueOrDie();
  PgOptions options = SolvedOptions();
  PublishedTable direct =
      PgPublisher(options)
          .Publish(census.table, census.TaxonomyPointers())
          .ValueOrDie();
  PublishedTable robust =
      RobustPublisher(options)
          .Publish(census.table, census.TaxonomyPointers())
          .ValueOrDie();
  ASSERT_EQ(robust.num_rows(), direct.num_rows());
  EXPECT_EQ(robust.k(), direct.k());
  EXPECT_DOUBLE_EQ(robust.retention_p(), direct.retention_p());
}

TEST(RobustPublisherTest, RejectsBadPolicy) {
  CensusDataset census = GenerateCensus(200, 5).ValueOrDie();
  RobustPublishOptions policy;
  policy.max_attempts = 0;
  RobustPublisher publisher(SolvedOptions(), policy);
  EXPECT_TRUE(publisher.Publish(census.table, census.TaxonomyPointers())
                  .status()
                  .IsInvalidArgument());
}

TEST(RobustPublisherTest, UnlimitedBudgetStillRetriesToSuccess) {
  FailpointRegistry::Global().DisableAll();
  CensusDataset census = GenerateCensus(1500, 5).ValueOrDie();
  ASSERT_TRUE(FailpointRegistry::Global()
                  .Enable(failpoints::kPublishPerturb, "times(2)")
                  .ok());
  RobustPublishOptions policy;
  policy.max_attempts = 5;
  policy.allow_generalizer_fallback = false;
  RobustPublisher publisher(SolvedOptions(), policy);
  PublishReport report;
  Result<PublishedTable> result =
      publisher.Publish(census.table, census.TaxonomyPointers(), &report);
  FailpointRegistry::Global().DisableAll();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(report.attempts.size(), 3u);  // 2 faulted + 1 clean
}

TEST(RobustPublisherTest, OneShotPublishScreensTheDatasetOnce) {
  // every(2) fires on the second screen: a one-shot publish must reach the
  // release on the first.
  FailpointRegistry::Global().DisableAll();
  CensusDataset census = GenerateCensus(300, 5).ValueOrDie();
  ASSERT_TRUE(FailpointRegistry::Global()
                  .Enable(failpoints::kPublishValidate, "every(2)")
                  .ok());
  RobustPublishOptions policy;
  policy.max_attempts = 1;
  policy.allow_generalizer_fallback = false;
  PublishReport report;
  Result<PublishedTable> result =
      RobustPublisher(SolvedOptions(), policy)
          .Publish(census.table, census.TaxonomyPointers(), &report);
  FailpointRegistry::Global().DisableAll();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(report.attempts.size(), 1u);
}

TEST(RobustPublisherTest, EngineRequestsNeverRescreenTheDataset) {
  // Create screens the dataset (and so evaluates the failpoint) once;
  // requests only check their options.
  FailpointRegistry::Global().DisableAll();
  CensusDataset census = GenerateCensus(300, 5).ValueOrDie();
  ASSERT_TRUE(FailpointRegistry::Global()
                  .Enable(failpoints::kPublishValidate, "times(1)")
                  .ok());
  EXPECT_TRUE(
      engine::PublicationEngine::Create(census.table, census.taxonomies)
          .status()
          .IsInternal());
  auto engine = engine::PublicationEngine::Create(census.table,
                                                  census.taxonomies)
                    .ValueOrDie();
  FailpointRegistry::Global().DisableAll();
  ASSERT_TRUE(FailpointRegistry::Global()
                  .Enable(failpoints::kPublishValidate, "always")
                  .ok());
  engine::PublishRequest request;
  request.options = SolvedOptions();
  Result<PublishedTable> result = engine->Publish(request);
  const uint64_t screens =
      FailpointRegistry::Global().TriggerCount(failpoints::kPublishValidate);
  FailpointRegistry::Global().DisableAll();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(screens, 0u);
}

TEST(RobustPublisherTest, ReportCapturesPermanentFailure) {
  // Bad options, and a null taxonomy entry: both fail before any attempt.
  CensusDataset census = GenerateCensus(200, 5).ValueOrDie();
  PgOptions bad_options;
  bad_options.s = -1.0;
  bad_options.p = 0.3;
  PgOptions good_options;
  good_options.k = 4;
  good_options.p = 0.3;
  std::vector<const Taxonomy*> with_null = census.TaxonomyPointers();
  with_null.back() = nullptr;
  const std::vector<std::pair<PgOptions, std::vector<const Taxonomy*>>>
      cases = {{bad_options, census.TaxonomyPointers()},
               {good_options, with_null}};
  for (const auto& [options, taxonomies] : cases) {
    RobustPublisher publisher(options);
    PublishReport report;
    Result<PublishedTable> result =
        publisher.Publish(census.table, taxonomies, &report);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsInvalidArgument())
        << result.status().ToString();
    EXPECT_EQ(report.final_status, result.status());
    EXPECT_TRUE(report.attempts.empty());
    EXPECT_FALSE(report.audit_clean);
  }
}

}  // namespace
}  // namespace pgpub
