/// \file engine_test.cc
/// PublicationEngine and cache tests, centered on the cache-equivalence
/// differential suite: a warm (cache-hit) publication must be
/// byte-identical to a cold one — across datasets, generalizers and
/// thread counts — because a cache that changes the published bytes is a
/// correctness bug, not an optimization.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "core/publish_hooks.h"
#include "core/report_io.h"
#include "core/robust_publisher.h"
#include "core/validate.h"
#include "datagen/census.h"
#include "datagen/clinic.h"
#include "datagen/hospital.h"
#include "engine/lru_cache.h"
#include "engine/publication_engine.h"

namespace pgpub {
namespace {

using engine::CacheStats;
using engine::EngineOptions;
using engine::LruCache;
using engine::PublicationEngine;
using engine::PublishRequest;

// ------------------------------------------------------------- helpers

/// Flattens a release into its byte-identity witness.
std::vector<int32_t> Flatten(const PublishedTable& table) {
  std::vector<int32_t> flat;
  flat.reserve(table.num_rows() * (table.num_qi_attrs() + 2));
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (int i = 0; i < table.num_qi_attrs(); ++i) {
      flat.push_back(table.qi_gen(r, i));
    }
    flat.push_back(table.sensitive(r));
    flat.push_back(static_cast<int32_t>(table.group_size(r)));
  }
  return flat;
}

/// Serializes a report with the two sanctioned warm/cold differences
/// (timings and cache provenance) normalized away. Everything else —
/// attempt seeds, outcomes, audit verdicts — must match exactly.
std::string NormalizedReportJson(PublishReport report) {
  for (PublishReport::Attempt& attempt : report.attempts) {
    attempt.elapsed_ms = 0.0;
  }
  report.total_ms = 0.0;
  report.cache = PublishReport::CacheActivity{};
  return PublishReportToJsonString(report);
}

struct Workload {
  std::string name;
  CensusDataset data;
  int k = 0;
};

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> workloads;
  workloads.push_back(
      {"census", GenerateCensus(1500, 1).ValueOrDie(), 6});
  workloads.push_back(
      {"clinic", GenerateClinic(1500, 2).ValueOrDie(), 6});
  HospitalDataset hospital = MakeHospitalDataset().ValueOrDie();
  CensusDataset hospital_as_dataset;
  hospital_as_dataset.table = std::move(hospital.table);
  hospital_as_dataset.taxonomies = std::move(hospital.taxonomies);
  workloads.push_back({"hospital", std::move(hospital_as_dataset), 2});
  return workloads;
}

// -------------------------------------------------------- LruCache unit

TEST(LruCacheTest, HitMissAndStats) {
  LruCache<int, std::string> cache("test_hitmiss", 4);
  EXPECT_FALSE(cache.Lookup(1).has_value());
  cache.Insert(1, "one");
  const auto hit = cache.Lookup(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "one");
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int, int> cache("test_evict", 2);
  cache.Insert(1, 10);
  cache.Insert(2, 20);
  // Touch 1 so 2 becomes the LRU entry.
  ASSERT_TRUE(cache.Lookup(1).has_value());
  cache.Insert(3, 30);
  EXPECT_TRUE(cache.Lookup(1).has_value());
  EXPECT_FALSE(cache.Lookup(2).has_value());
  EXPECT_TRUE(cache.Lookup(3).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCacheTest, InsertRefreshesExistingKeyWithoutEviction) {
  LruCache<int, int> cache("test_refresh", 2);
  cache.Insert(1, 10);
  cache.Insert(2, 20);
  cache.Insert(1, 11);  // Refresh: 2 is now LRU.
  cache.Insert(3, 30);
  const auto kept = cache.Lookup(1);
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(*kept, 11);
  EXPECT_FALSE(cache.Lookup(2).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(LruCacheTest, ZeroCapacityClampsToOne) {
  LruCache<int, int> cache("test_zero", 0);
  EXPECT_EQ(cache.capacity(), 1u);
  cache.Insert(1, 10);
  cache.Insert(2, 20);
  EXPECT_EQ(cache.size(), 1u);
}

// ----------------------------------------- cache-equivalence differential

/// The tentpole property: for every dataset x generalizer x thread count,
/// the engine's warm (second) serve is byte-identical to its cold (first)
/// serve AND to a one-shot RobustPublisher with the same options — and
/// the warm report differs from the cold one only in timings and cache
/// provenance.
TEST(CacheEquivalenceTest, WarmEqualsColdAcrossDatasetsGeneralizersThreads) {
  for (const Workload& workload : MakeWorkloads()) {
    for (const auto generalizer : {PgOptions::Generalizer::kTds,
                                   PgOptions::Generalizer::kIncognito}) {
      PgOptions options;
      options.k = workload.k;
      options.p = 0.3;
      options.seed = 77;
      options.generalizer = generalizer;
      options.num_threads = 1;

      // One-shot reference release (no engine, no caches, serial).
      const PublishedTable reference =
          RobustPublisher(options)
              .Publish(workload.data.table, workload.data.TaxonomyPointers())
              .ValueOrDie();
      const std::vector<int32_t> reference_flat = Flatten(reference);

      for (const int threads : {1, 4}) {
        SCOPED_TRACE(workload.name + " generalizer=" +
                     std::to_string(static_cast<int>(generalizer)) +
                     " threads=" + std::to_string(threads));
        EngineOptions engine_options;
        engine_options.num_threads = threads;
        auto engine = PublicationEngine::Create(workload.data.table,
                                                workload.data.taxonomies,
                                                engine_options)
                          .ValueOrDie();
        PublishRequest request;
        request.options = options;

        PublishReport cold_report;
        const PublishedTable cold =
            engine->Publish(request, &cold_report).ValueOrDie();
        PublishReport warm_report;
        const PublishedTable warm =
            engine->Publish(request, &warm_report).ValueOrDie();

        EXPECT_EQ(Flatten(cold), reference_flat);
        EXPECT_EQ(Flatten(warm), reference_flat);

        // Cold filled the caches; warm must be all hits, no misses.
        EXPECT_TRUE(cold_report.cache.enabled);
        EXPECT_GT(cold_report.cache.misses, 0u);
        EXPECT_TRUE(warm_report.cache.enabled);
        EXPECT_GT(warm_report.cache.hits, 0u);
        EXPECT_EQ(warm_report.cache.misses, 0u);
        EXPECT_DOUBLE_EQ(warm_report.cache.HitRate(), 1.0);

        // Timings and cache activity are the only sanctioned differences.
        EXPECT_EQ(NormalizedReportJson(cold_report),
                  NormalizedReportJson(warm_report));
      }
    }
  }
}

TEST(CacheEquivalenceTest, SolvedRetentionIsByteIdentical) {
  CensusDataset census = GenerateCensus(1200, 3).ValueOrDie();
  PublishRequest request;
  request.options.k = 6;
  request.options.p = -1.0;
  request.options.target.kind = PrivacyTarget::Kind::kRho;
  request.options.target.rho1 = 0.2;
  request.options.target.rho2 = 0.5;
  request.options.seed = 9;

  const PublishedTable reference =
      RobustPublisher(request.options)
          .Publish(census.table, census.TaxonomyPointers())
          .ValueOrDie();

  auto engine =
      PublicationEngine::Create(census.table, census.taxonomies).ValueOrDie();
  const PublishedTable cold = engine->Publish(request).ValueOrDie();
  const PublishedTable warm = engine->Publish(request).ValueOrDie();

  EXPECT_EQ(Flatten(cold), Flatten(reference));
  EXPECT_EQ(Flatten(warm), Flatten(reference));
}

/// Incognito's lattice search ignores the perturbed labels, so requests
/// that differ only in seed share one recoding; TDS consumed the labels,
/// so a new seed is a new cache identity. Both sides of that key design
/// must hold.
TEST(CacheEquivalenceTest, RecodingKeyTracksLabelDependence) {
  CensusDataset census = GenerateCensus(1000, 4).ValueOrDie();

  {
    auto engine = PublicationEngine::Create(census.table, census.taxonomies)
                      .ValueOrDie();
    PublishRequest request;
    request.options.k = 6;
    request.options.p = 0.3;
    request.options.generalizer = PgOptions::Generalizer::kIncognito;
    request.options.seed = 1;
    ASSERT_TRUE(engine->Publish(request).ok());
    request.options.seed = 2;
    ASSERT_TRUE(engine->Publish(request).ok());
    EXPECT_EQ(engine->recoding_cache_stats().hits, 1u)
        << "Incognito must share the recoding across seeds";
  }
  {
    auto engine = PublicationEngine::Create(census.table, census.taxonomies)
                      .ValueOrDie();
    PublishRequest request;
    request.options.k = 6;
    request.options.p = 0.3;
    request.options.generalizer = PgOptions::Generalizer::kTds;
    request.options.seed = 1;
    ASSERT_TRUE(engine->Publish(request).ok());
    request.options.seed = 2;
    ASSERT_TRUE(engine->Publish(request).ok());
    EXPECT_EQ(engine->recoding_cache_stats().hits, 0u)
        << "TDS recodings depend on the perturbed labels; a new seed must "
           "not hit";
    EXPECT_EQ(engine->recoding_cache_stats().misses, 2u);
  }
}

// ----------------------------------------------------- negative tests

/// A capacity-1 recoding cache thrashed by alternating k values must
/// evict — and keep serving byte-correct releases while doing so.
TEST(CacheEvictionTest, EvictionPreservesCorrectness) {
  CensusDataset census = GenerateCensus(1000, 5).ValueOrDie();
  EngineOptions engine_options;
  engine_options.recoding_cache_capacity = 1;
  auto engine = PublicationEngine::Create(census.table, census.taxonomies,
                                          engine_options)
                    .ValueOrDie();

  PublishRequest request;
  request.options.p = 0.3;
  request.options.seed = 6;

  std::vector<std::vector<int32_t>> first_round;
  for (const int k : {4, 6, 4, 6}) {
    request.options.k = k;
    first_round.push_back(Flatten(engine->Publish(request).ValueOrDie()));
  }
  // All four were misses: capacity 1 cannot hold both k identities.
  EXPECT_EQ(engine->recoding_cache_stats().misses, 4u);
  EXPECT_GE(engine->recoding_cache_stats().evictions, 3u);

  // Fresh engine (ample capacity) agrees byte-for-byte with every round.
  auto fresh =
      PublicationEngine::Create(census.table, census.taxonomies).ValueOrDie();
  std::vector<std::vector<int32_t>> second_round;
  for (const int k : {4, 6, 4, 6}) {
    request.options.k = k;
    second_round.push_back(Flatten(fresh->Publish(request).ValueOrDie()));
  }
  EXPECT_EQ(first_round, second_round);
}

/// Hooks whose Lookup returns the wrong recoding (what a fingerprint
/// collision would deliver) must not produce a bad release: the pipeline
/// re-checks k-anonymity on every cache hit and fails closed.
class PoisonedRecodingHooks : public PublishHooks {
 public:
  explicit PoisonedRecodingHooks(GlobalRecoding poison)
      : poison_(std::move(poison)) {}

  std::optional<GlobalRecoding> LookupRecoding(
      const RecodingQuery& query) override {
    (void)query;
    return poison_;
  }

 private:
  GlobalRecoding poison_;
};

TEST(CachePoisoningTest, CollidedRecodingFailsClosed) {
  CensusDataset census = GenerateCensus(400, 7).ValueOrDie();
  const std::vector<int> qi = census.table.schema().QiIndices();

  // Full-resolution recoding: valid shape, but its groups are far smaller
  // than k = 50 — exactly the kind of wrong-but-plausible value a
  // fingerprint collision could serve.
  GlobalRecoding poison;
  poison.qi_attrs = qi;
  for (int a : qi) {
    const int32_t domain = census.table.domain(a).size();
    AttributeRecoding rec = AttributeRecoding::Single(domain);
    for (int32_t c = 1; c < domain; ++c) rec.SplitAt(c);
    poison.per_attr.push_back(std::move(rec));
  }

  PgOptions options;
  options.k = 50;
  options.p = 0.3;
  PoisonedRecodingHooks hooks(std::move(poison));
  const ValidatedDataset dataset =
      ValidateDataset(census.table, census.TaxonomyPointers()).ValueOrDie();
  const auto result = PgPublisher(options).Publish(dataset, &hooks);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInternal()) << result.status().ToString();
}

// -------------------------------------------------- engine validation

TEST(PublicationEngineTest, CreateRejectsBadInputs) {
  CensusDataset census = GenerateCensus(300, 10).ValueOrDie();

  std::vector<Taxonomy> short_family = census.taxonomies;
  short_family.pop_back();
  EXPECT_TRUE(PublicationEngine::Create(census.table,
                                        std::move(short_family))
                  .status()
                  .IsInvalidArgument());

  EngineOptions bad_options;
  bad_options.recoding_cache_capacity = 0;
  EXPECT_TRUE(PublicationEngine::Create(census.table, census.taxonomies,
                                        bad_options)
                  .status()
                  .IsInvalidArgument());
}

TEST(PublicationEngineTest, PublishRejectsBadRequests) {
  CensusDataset census = GenerateCensus(30, 11).ValueOrDie();
  auto engine =
      PublicationEngine::Create(census.table, census.taxonomies).ValueOrDie();

  PublishRequest too_big;
  too_big.options.k = 50;  // More than the 30 rows.
  too_big.options.p = 0.3;
  PublishReport report;
  const auto result = engine->Publish(too_big, &report);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsFailedPrecondition());
  EXPECT_FALSE(report.final_status.ok());

  PublishRequest bad_options;
  bad_options.options.k = 4;
  bad_options.options.p = -1.0;  // Solve requested with no target.
  EXPECT_TRUE(engine->Publish(bad_options).status().IsInvalidArgument());
}

/// Two-attribute table (q over [0, 8), s over [0, sensitive_values)) for
/// the schema-level negative cases the census fixture cannot express.
Table TinyTable(AttributeRole q_role, int32_t sensitive_values) {
  Schema schema;
  schema.AddAttribute({"q", AttributeType::kNumeric, q_role});
  schema.AddAttribute(
      {"s", AttributeType::kNumeric, AttributeRole::kSensitive});
  std::vector<AttributeDomain> domains = {
      AttributeDomain::Numeric(0, 7),
      AttributeDomain::Numeric(0, sensitive_values - 1)};
  std::vector<std::vector<int32_t>> cols(2);
  for (int32_t i = 0; i < 40; ++i) {
    cols[0].push_back(i % 8);
    cols[1].push_back(i % sensitive_values);
  }
  return Table::Create(schema, domains, std::move(cols)).ValueOrDie();
}

/// The engine screens the dataset at Create and each request at Publish;
/// together the two must reject exactly what the one-shot validator and
/// RobustPublisher reject, with the same StatusCode.
TEST(PublicationEngineTest, RejectsWhatValidateRejects) {
  CensusDataset census = GenerateCensus(30, 11).ValueOrDie();
  const int32_t us = census.table
                         .domain(census.table.schema().SensitiveIndex()
                                     .ValueOrDie())
                         .size();
  PgOptions good;
  good.k = 4;
  good.p = 0.3;
  good.seed = 1;

  struct Case {
    std::string name;
    Table table;
    std::vector<Taxonomy> taxonomies;
    PgOptions options;
  };
  std::vector<Case> cases;
  cases.push_back({"no QI attribute",
                   TinyTable(AttributeRole::kRegular, 4), {}, good});
  {
    std::vector<Taxonomy> short_family = census.taxonomies;
    short_family.pop_back();
    cases.push_back({"too few taxonomies", census.table,
                     std::move(short_family), good});
  }
  {
    std::vector<Taxonomy> wrong = census.taxonomies;
    wrong[0] = Taxonomy::Binary(3, "wrong");
    cases.push_back({"taxonomy domain mismatch", census.table,
                     std::move(wrong), good});
  }
  {
    std::vector<Taxonomy> unaudited = census.taxonomies;
    unaudited[0] = Taxonomy();  // No nodes: Audit rejects it.
    cases.push_back({"taxonomy fails Audit", census.table,
                     std::move(unaudited), good});
  }
  cases.push_back({"|U^s| < 2", TinyTable(AttributeRole::kQuasiIdentifier, 1),
                   {Taxonomy::Binary(8, "*")}, good});
  {
    PgOptions options = good;
    options.k = 50;  // More than the 30 rows.
    cases.push_back({"k > rows", census.table, census.taxonomies, options});
  }
  {
    PgOptions options = good;
    options.k = 0;
    options.s = -1.0;
    cases.push_back({"s = -1", census.table, census.taxonomies, options});
  }
  {
    PgOptions options = good;
    options.p = -1.0;  // Solve requested with no target.
    cases.push_back(
        {"p < 0 without target", census.table, census.taxonomies, options});
  }
  {
    PgOptions options = good;
    options.class_category_starts = {0, us};
    cases.push_back({"class_category_starts beyond |U^s|", census.table,
                     census.taxonomies, options});
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<const Taxonomy*> pointers;
    for (const Taxonomy& t : c.taxonomies) pointers.push_back(&t);

    const Status validate = ValidatePublishInputs(c.table, pointers, c.options);
    ASSERT_FALSE(validate.ok());
    const Status robust =
        RobustPublisher(c.options).Publish(c.table, pointers).status();
    EXPECT_EQ(robust.code(), validate.code()) << robust.ToString();

    auto engine = PublicationEngine::Create(c.table, c.taxonomies);
    Status served = engine.status();
    if (engine.ok()) {
      PublishRequest request;
      request.options = c.options;
      served = (*engine)->Publish(request).status();
    }
    EXPECT_EQ(served.code(), validate.code()) << served.ToString();
  }
}

// ----------------------------------------------------------- deadlines

TEST(EngineDeadlineTest, ExpiredDeadlineFailsClosedBeforePublishWork) {
  uint64_t fake_now = 1000;
  EngineOptions options;
  options.num_threads = 1;
  options.now_nanos = [&fake_now] { return fake_now; };
  CensusDataset clinic = GenerateClinic(400, 3).ValueOrDie();
  auto eng = PublicationEngine::Create(std::move(clinic.table),
                                       std::move(clinic.taxonomies), options)
                 .ValueOrDie();

  PublishRequest request;
  request.options.k = 4;
  request.options.p = 0.5;
  request.options.seed = 9;
  request.deadline_nanos = 999;  // already expired on the injected clock
  Result<PublishedTable> expired = eng->Publish(request);
  ASSERT_FALSE(expired.ok());
  EXPECT_TRUE(expired.status().IsDeadlineExceeded())
      << expired.status().ToString();

  // A deadline failure is permanent for RobustPublisher: retrying with a
  // fresh seed cannot un-expire the clock.
  request.deadline_nanos = 0;  // none
  Result<PublishedTable> unconstrained = eng->Publish(request);
  ASSERT_TRUE(unconstrained.ok()) << unconstrained.status().ToString();

  // A live deadline serves — and serves the same bytes as no deadline
  // (deadlines gate *whether*, never *what*).
  request.deadline_nanos = fake_now + 1;
  Result<PublishedTable> live = eng->Publish(request);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_EQ(Flatten(*live), Flatten(*unconstrained));
}

TEST(EngineDeadlineTest, DeadlinePassedDuringAttemptStopsTheRetry) {
  // The clock passes the deadline once attempt 1 has hit its injected
  // perturb fault, so the retry that fault would earn never starts.
  FailpointRegistry& registry = FailpointRegistry::Global();
  registry.DisableAll();
  ASSERT_TRUE(
      registry.Enable(failpoints::kPublishPerturb, "always").ok());
  constexpr uint64_t kDeadline = 1000;
  EngineOptions options;
  options.num_threads = 1;
  options.now_nanos = [&registry] {
    return registry.TriggerCount(failpoints::kPublishPerturb) > 0
               ? kDeadline + 1
               : kDeadline - 1;
  };
  CensusDataset clinic = GenerateClinic(400, 3).ValueOrDie();
  auto eng = PublicationEngine::Create(std::move(clinic.table),
                                       std::move(clinic.taxonomies), options)
                 .ValueOrDie();

  PublishRequest request;
  request.options.k = 4;
  request.options.p = 0.5;
  request.options.seed = 9;
  request.deadline_nanos = kDeadline;
  PublishReport report;
  Result<PublishedTable> result = eng->Publish(request, &report);
  registry.DisableAll();

  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  ASSERT_EQ(report.attempts.size(), 1u);
  EXPECT_TRUE(report.attempts[0].outcome.IsInternal())
      << report.attempts[0].outcome.ToString();
  EXPECT_FALSE(report.final_status.ok());
}

// --------------------------------------------------- report round-trip

TEST(ReportCacheTest, CacheActivityRoundTripsThroughJson) {
  PublishReport report;
  report.final_status = Status::OK();
  report.cache.enabled = true;
  report.cache.hits = 3;
  report.cache.misses = 1;
  report.cache.evictions = 2;

  const std::string json = PublishReportToJsonString(report);
  const PublishReport parsed = PublishReportFromJson(json).ValueOrDie();
  EXPECT_TRUE(parsed.cache.enabled);
  EXPECT_EQ(parsed.cache.hits, 3u);
  EXPECT_EQ(parsed.cache.misses, 1u);
  EXPECT_EQ(parsed.cache.evictions, 2u);
  EXPECT_DOUBLE_EQ(parsed.cache.HitRate(), 0.75);
}

}  // namespace
}  // namespace pgpub
