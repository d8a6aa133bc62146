#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/failpoint.h"
#include "core/robust_publisher.h"
#include "core/verify.h"
#include "datagen/clinic.h"
#include "engine/publication_engine.h"
#include "hierarchy/recoding.h"
#include "hierarchy/recoding_io.h"
#include "hierarchy/taxonomy_io.h"
#include "obs/log.h"
#include "server/server_core.h"
#include "server/tenant_registry.h"
#include "table/csv_io.h"

namespace pgpub {
namespace {

// The registry is process-global; every test must leave it disarmed.
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Global().DisableAll(); }
  void TearDown() override { FailpointRegistry::Global().DisableAll(); }
  FailpointRegistry& reg() { return FailpointRegistry::Global(); }
};

// ------------------------------------------------------- registry semantics

TEST_F(FailpointTest, UnknownNameIsRejected) {
  Status st = reg().Enable("no.such.point", "always");
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_FALSE(reg().AnyEnabled());
}

TEST_F(FailpointTest, RegisterAllowsAdHocPoints) {
  reg().Register("test.adhoc");
  ASSERT_TRUE(reg().Enable("test.adhoc", "always").ok());
  EXPECT_TRUE(reg().ShouldFail("test.adhoc"));
}

TEST_F(FailpointTest, MalformedSpecsAreRejected) {
  const char* bad[] = {"sometimes", "every(0)",  "every(x)", "every()",
                       "times(0)",  "prob(1.5)", "prob(-1)", "prob(0.5,x)",
                       ""};
  for (const char* spec : bad) {
    EXPECT_TRUE(reg()
                    .Enable(failpoints::kPublishPerturb, spec)
                    .IsInvalidArgument())
        << "spec accepted: " << spec;
  }
  EXPECT_FALSE(reg().AnyEnabled());
}

TEST_F(FailpointTest, AlwaysAndOffModes) {
  EXPECT_FALSE(reg().ShouldFail(failpoints::kPublishPerturb));
  ASSERT_TRUE(reg().Enable(failpoints::kPublishPerturb, "always").ok());
  EXPECT_TRUE(reg().AnyEnabled());
  EXPECT_TRUE(reg().ShouldFail(failpoints::kPublishPerturb));
  ASSERT_TRUE(reg().Enable(failpoints::kPublishPerturb, "off").ok());
  EXPECT_FALSE(reg().AnyEnabled());
  EXPECT_FALSE(reg().ShouldFail(failpoints::kPublishPerturb));
}

TEST_F(FailpointTest, FiringEmitsStructuredFailpointHitEvent) {
  obs::ScopedLogCapture capture(obs::LogLevel::kWarn);
  ASSERT_TRUE(reg().Enable(failpoints::kPublishPerturb, "always").ok());
  EXPECT_TRUE(reg().ShouldFail(failpoints::kPublishPerturb));
  const auto events = capture.sink().EventsNamed("failpoint_hit");
  ASSERT_EQ(events.size(), 1u);
  const obs::JsonValue* point = events[0].FindField("point");
  ASSERT_NE(point, nullptr);
  EXPECT_EQ(point->AsString().ValueOrDie(), failpoints::kPublishPerturb);
  const obs::JsonValue* phase = events[0].FindField("phase");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->AsString().ValueOrDie(), "perturb");

  // A check that does not fire stays silent.
  ASSERT_TRUE(reg().Enable(failpoints::kPublishPerturb, "off").ok());
  EXPECT_FALSE(reg().ShouldFail(failpoints::kPublishPerturb));
  EXPECT_EQ(capture.sink().EventsNamed("failpoint_hit").size(), 1u);
}

TEST_F(FailpointTest, EveryNthFiresOnMultiples) {
  ASSERT_TRUE(reg().Enable(failpoints::kPublishSample, "every(3)").ok());
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) {
    fired.push_back(reg().ShouldFail(failpoints::kPublishSample));
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, true,
                                      false, false, true}));
  EXPECT_EQ(reg().HitCount(failpoints::kPublishSample), 9u);
  EXPECT_EQ(reg().TriggerCount(failpoints::kPublishSample), 3u);
}

TEST_F(FailpointTest, TimesNFiresThenStops) {
  ASSERT_TRUE(reg().Enable(failpoints::kPublishAudit, "times(2)").ok());
  EXPECT_TRUE(reg().ShouldFail(failpoints::kPublishAudit));
  EXPECT_TRUE(reg().ShouldFail(failpoints::kPublishAudit));
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(reg().ShouldFail(failpoints::kPublishAudit));
  }
  EXPECT_EQ(reg().TriggerCount(failpoints::kPublishAudit), 2u);
}

TEST_F(FailpointTest, ProbZeroAndOneAreDegenerate) {
  ASSERT_TRUE(reg().Enable(failpoints::kPublishPerturb, "prob(0)").ok());
  ASSERT_TRUE(reg().Enable(failpoints::kPublishSample, "prob(1)").ok());
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(reg().ShouldFail(failpoints::kPublishPerturb));
    EXPECT_TRUE(reg().ShouldFail(failpoints::kPublishSample));
  }
}

TEST_F(FailpointTest, ProbStreamIsDeterministicPerSeed) {
  auto draw = [&](const std::string& spec) {
    reg().DisableAll();
    EXPECT_TRUE(reg().Enable(failpoints::kPublishPerturb, spec).ok());
    std::vector<bool> out;
    for (int i = 0; i < 32; ++i) {
      out.push_back(reg().ShouldFail(failpoints::kPublishPerturb));
    }
    return out;
  };
  std::vector<bool> a = draw("prob(0.5,42)");
  std::vector<bool> b = draw("prob(0.5,42)");
  std::vector<bool> c = draw("prob(0.5,43)");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  int fires = 0;
  for (bool f : a) fires += f;
  EXPECT_GT(fires, 4);  // ~16 expected; bounds are loose but deterministic
  EXPECT_LT(fires, 28);
}

TEST_F(FailpointTest, EnableFromSpecParsesLists) {
  ASSERT_TRUE(reg()
                  .EnableFromSpec(" publish.perturb = always ; "
                                  "publish.sample=every(2);;")
                  .ok());
  EXPECT_TRUE(reg().ShouldFail(failpoints::kPublishPerturb));
  EXPECT_FALSE(reg().ShouldFail(failpoints::kPublishSample));
  EXPECT_TRUE(reg().ShouldFail(failpoints::kPublishSample));

  EXPECT_TRUE(reg().EnableFromSpec("missing-equals").IsInvalidArgument());
  EXPECT_TRUE(reg().EnableFromSpec("no.such=always").IsInvalidArgument());
}

TEST_F(FailpointTest, KnownNamesCoverTheCanonicalList) {
  std::vector<std::string> names = reg().KnownNames();
  for (const char* name : failpoints::kAll) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << "missing canonical failpoint " << name;
  }
}

TEST_F(FailpointTest, MacroReturnsInternalStatus) {
  auto site = []() -> Status {
    PGPUB_FAILPOINT(failpoints::kPublishAssemble);
    return Status::OK();
  };
  EXPECT_TRUE(site().ok());
  ASSERT_TRUE(reg().Enable(failpoints::kPublishAssemble, "always").ok());
  Status st = site();
  EXPECT_TRUE(st.IsInternal());
  EXPECT_NE(st.message().find(failpoints::kPublishAssemble),
            std::string::npos);
}

// ------------------------------------------------------------- chaos sweep

/// Drives every instrumented subsystem with valid inputs. Each canonical
/// failpoint lies on exactly one of these paths, so arming it must turn
/// the corresponding operation into a non-OK Status — and disarming it
/// must make the same operation succeed again.
class ChaosSweepTest : public FailpointTest {
 protected:
  static std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
  }

  void SetUp() override {
    FailpointTest::SetUp();
    csv_path_ = TempPath("pgpub_chaos.csv");
    {
      std::ofstream out(csv_path_);
      out << "a,b\n1,2\n3,4\n";
    }
    tax_path_ = TempPath("pgpub_chaos.tax");
    ASSERT_TRUE(SaveTaxonomy(Taxonomy::Binary(8, "root"), tax_path_).ok());
    rec_path_ = TempPath("pgpub_chaos.rec");
    GlobalRecoding recoding;
    recoding.qi_attrs = {0};
    recoding.per_attr = {AttributeRecoding::Identity(4)};
    ASSERT_TRUE(SaveRecoding(recoding, rec_path_).ok());
    clinic_ = GenerateClinic(500, 7).ValueOrDie();
  }

  void TearDown() override {
    std::remove(csv_path_.c_str());
    std::remove(tax_path_.c_str());
    std::remove(rec_path_.c_str());
    FailpointTest::TearDown();
  }

  /// Runs the operation that traverses failpoint `name`; returns its
  /// Status. With nothing armed every driver must return OK.
  Status Drive(const std::string& name) {
    if (name == failpoints::kCsvReadFile) {
      return Csv::ReadFile(csv_path_).status();
    }
    if (name == failpoints::kTableLoadCsv) {
      Schema schema({{"a", AttributeType::kNumeric, AttributeRole::kRegular},
                     {"b", AttributeType::kNumeric, AttributeRole::kRegular}});
      return LoadCsv(csv_path_, schema).status();
    }
    if (name == failpoints::kTaxonomyLoad) {
      return LoadTaxonomy(tax_path_).status();
    }
    if (name == failpoints::kRecodingLoad) {
      return LoadRecoding(rec_path_).status();
    }
    if (name == failpoints::kEngineCacheRecheck) {
      // The failpoint sits on the recoding-cache *hit* path, so serve the
      // same lattice twice: Incognito ignores the perturbed labels, which
      // makes the second request (different seed) a guaranteed hit.
      engine::EngineOptions engine_options;
      engine_options.robust.max_attempts = 1;
      engine_options.robust.allow_generalizer_fallback = false;
      auto eng = engine::PublicationEngine::Create(
          Table(clinic_.table),
          std::vector<Taxonomy>(clinic_.taxonomies), engine_options);
      if (!eng.ok()) return eng.status();
      engine::PublishRequest request;
      request.options.k = 5;
      request.options.p = 0.4;
      request.options.generalizer = PgOptions::Generalizer::kIncognito;
      request.options.seed = 1;
      RETURN_IF_ERROR((*eng)->Publish(request).status());
      request.options.seed = 2;
      return (*eng)->Publish(request).status();
    }
    if (name == failpoints::kServerAdmit ||
        name == failpoints::kServerQueueCorrupt) {
      server::TenantRegistry registry(nullptr);
      server::TenantOptions tenant_options;
      tenant_options.engine.robust.max_attempts = 1;
      tenant_options.engine.robust.allow_generalizer_fallback = false;
      RETURN_IF_ERROR(registry.AddTenant(
          "t", Table(clinic_.table),
          std::vector<Taxonomy>(clinic_.taxonomies), tenant_options));
      server::ServerCore core(&registry, server::ServerOptions{});
      RETURN_IF_ERROR(core.Start());
      struct Waiter {
        std::mutex mu;
        std::condition_variable cv;
        bool done = false;
        Status status;
      };
      auto waiter = std::make_shared<Waiter>();
      server::ServerRequest request;
      request.tenant = "t";
      request.stream_id = 1;
      request.publish.options.k = 5;
      request.publish.options.p = 0.4;
      Status admitted = core.Submit(
          std::move(request), [waiter](server::ServerResponse response) {
            std::lock_guard<std::mutex> lock(waiter->mu);
            waiter->status = std::move(response.status);
            waiter->done = true;
            waiter->cv.notify_one();
          });
      if (!admitted.ok()) {
        core.Shutdown();
        return admitted;  // kServerAdmit rejects synchronously.
      }
      {
        std::unique_lock<std::mutex> lock(waiter->mu);
        waiter->cv.wait(lock, [&] { return waiter->done; });
      }
      core.Shutdown();
      return waiter->status;
    }
    // Everything else sits on the publish pipeline. One attempt, no
    // fallback: the armed failpoint must surface, not be retried around.
    PgOptions options;
    options.k = 5;
    options.p = 0.4;
    options.seed = 1234;
    options.generalizer = name == failpoints::kPublishGeneralizeIncognito
                              ? PgOptions::Generalizer::kIncognito
                              : PgOptions::Generalizer::kTds;
    RobustPublishOptions policy;
    policy.max_attempts = 1;
    policy.allow_generalizer_fallback = false;
    RobustPublisher publisher(options, policy);
    return publisher.Publish(clinic_.table, clinic_.TaxonomyPointers())
        .status();
  }

  std::string csv_path_, tax_path_, rec_path_;
  CensusDataset clinic_;
};

TEST_F(ChaosSweepTest, AllDriversSucceedWhenDisarmed) {
  for (const char* name : failpoints::kAll) {
    Status st = Drive(name);
    EXPECT_TRUE(st.ok()) << name << ": " << st.ToString();
  }
}

TEST_F(ChaosSweepTest, EveryFailpointFailsItsOperationAndRecovers) {
  for (const char* name : failpoints::kAll) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(reg().Enable(name, "always").ok());
    Status st = Drive(name);
    EXPECT_FALSE(st.ok());
    // The injected fault must surface as a well-formed error naming the
    // failpoint, never as an abort or a silently wrong result.
    EXPECT_NE(st.message().find(name), std::string::npos) << st.ToString();
    EXPECT_GE(reg().TriggerCount(name), 1u);
    reg().DisableAll();
    Status recovered = Drive(name);
    EXPECT_TRUE(recovered.ok()) << recovered.ToString();
  }
}

TEST_F(ChaosSweepTest, ProbabilisticSweepNeverReleasesUnauditedTable) {
  // Arm the whole publish path with coin-flip faults. Whatever survives
  // RobustPublisher's retries must still be a fully verified release.
  const char* publish_points[] = {
      failpoints::kPublishPerturb, failpoints::kPublishGeneralizeTds,
      failpoints::kPublishGeneralizeIncognito, failpoints::kPublishSample,
      failpoints::kPublishAssemble};
  int released = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    reg().DisableAll();
    for (const char* name : publish_points) {
      ASSERT_TRUE(
          reg().Enable(name, "prob(0.4," + std::to_string(seed) + ")").ok());
    }
    PgOptions options;
    options.k = 5;
    options.p = 0.4;
    options.seed = seed;
    RobustPublisher publisher(options, RobustPublishOptions{});
    PublishReport report;
    Result<PublishedTable> result = publisher.Publish(
        clinic_.table, clinic_.TaxonomyPointers(), &report);
    if (result.ok()) {
      ++released;
      EXPECT_TRUE(report.audit_clean);
      reg().DisableAll();  // audit again without interference
      Status audit = VerifyPublication(clinic_.table, *result);
      EXPECT_TRUE(audit.ok()) << audit.ToString();
    } else {
      EXPECT_FALSE(report.final_status.ok());
    }
  }
  // With p_fail = 0.4 per phase and 6 reseeded attempts, at least one of
  // the 8 runs publishes (probability of none is astronomically small).
  EXPECT_GE(released, 1);
}

// ------------------------------------------------- robust publish semantics

TEST_F(ChaosSweepTest, TransientFaultIsRetriedWithFreshSeed) {
  obs::ScopedLogCapture capture(obs::LogLevel::kWarn);
  ASSERT_TRUE(reg().Enable(failpoints::kPublishPerturb, "times(1)").ok());
  PgOptions options;
  options.k = 5;
  options.p = 0.4;
  options.seed = 99;
  RobustPublisher publisher(options, RobustPublishOptions{});
  PublishReport report;
  Result<PublishedTable> result =
      publisher.Publish(clinic_.table, clinic_.TaxonomyPointers(), &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(report.attempts.size(), 2u);
  EXPECT_TRUE(report.attempts[0].outcome.IsInternal());
  EXPECT_TRUE(report.attempts[1].outcome.ok());
  EXPECT_NE(report.attempts[0].seed, report.attempts[1].seed);
  EXPECT_EQ(report.attempts[0].seed, options.seed);
  EXPECT_FALSE(report.fallback_used);
  EXPECT_TRUE(report.audit_clean);
  EXPECT_TRUE(report.final_status.ok());
  // The retry narrates itself: the injected fault and the warn-level
  // retry decision both surface as structured events.
  EXPECT_TRUE(capture.sink().HasEvent("failpoint_hit"));
  const auto retries = capture.sink().EventsNamed("publish.retry");
  ASSERT_EQ(retries.size(), 1u);
  EXPECT_EQ(retries[0].FindField("attempt")->AsInt64().ValueOrDie(), 1);
}

TEST_F(ChaosSweepTest, GeneralizerFallbackEngagesWhenTdsIsDown) {
  obs::ScopedLogCapture capture(obs::LogLevel::kWarn);
  ASSERT_TRUE(
      reg().Enable(failpoints::kPublishGeneralizeTds, "always").ok());
  PgOptions options;
  options.k = 5;
  options.p = 0.4;
  RobustPublishOptions policy;
  policy.max_attempts = 2;
  RobustPublisher publisher(options, policy);
  PublishReport report;
  Result<PublishedTable> result =
      publisher.Publish(clinic_.table, clinic_.TaxonomyPointers(), &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(report.fallback_used);
  ASSERT_EQ(report.attempts.size(), 3u);  // 2 TDS failures + 1 Incognito
  EXPECT_EQ(report.attempts[2].generalizer,
            PgOptions::Generalizer::kIncognito);
  EXPECT_TRUE(report.audit_clean);
  const auto fallbacks = capture.sink().EventsNamed("publish.fallback");
  ASSERT_EQ(fallbacks.size(), 1u);
  EXPECT_EQ(
      fallbacks[0].FindField("generalizer")->AsString().ValueOrDie(),
      "incognito");
  reg().DisableAll();
  EXPECT_TRUE(VerifyPublication(clinic_.table, *result).ok());
}

TEST_F(ChaosSweepTest, AuditFailureFailsClosed) {
  ASSERT_TRUE(reg().Enable(failpoints::kPublishAudit, "always").ok());
  PgOptions options;
  options.k = 5;
  options.p = 0.4;
  RobustPublisher publisher(options, RobustPublishOptions{});
  PublishReport report;
  Result<PublishedTable> result =
      publisher.Publish(clinic_.table, clinic_.TaxonomyPointers(), &report);
  // Every pipeline run succeeded, every audit failed: nothing escapes.
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInternal());
  EXPECT_NE(result.status().message().find("failed closed"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_FALSE(report.audit_clean);
  for (const PublishReport::Attempt& attempt : report.attempts) {
    EXPECT_TRUE(attempt.outcome.ok());
    EXPECT_TRUE(attempt.audited);
    EXPECT_FALSE(attempt.audit.ok());
  }
  std::string summary = report.Summary();
  EXPECT_NE(summary.find("FAILED"), std::string::npos) << summary;
}

TEST_F(ChaosSweepTest, PermanentErrorIsNotRetried) {
  PgOptions options;
  options.k = 5;
  options.p = 1.7;  // invalid retention: no amount of retrying helps
  RobustPublisher publisher(options, RobustPublishOptions{});
  PublishReport report;
  Result<PublishedTable> result =
      publisher.Publish(clinic_.table, clinic_.TaxonomyPointers(), &report);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  EXPECT_TRUE(report.attempts.empty());  // rejected before any attempt
}

// ------------------------------------------- faults inside worker threads

// `perturb.worker_fail` sits *inside* the ParallelFor chunk body, so when
// the pipeline runs multi-threaded the fault originates on a pool worker.
// The contract: the error crosses the thread boundary as a plain Status,
// RobustPublisher fails closed exactly as for a caller-thread fault, and
// the structured event still carries the worker's phase tag.

TEST_F(ChaosSweepTest, WorkerFaultFailsClosedAtEveryThreadCount) {
  for (int threads : {1, 2}) {
    SCOPED_TRACE(threads);
    ASSERT_TRUE(reg().Enable(failpoints::kPerturbWorker, "always").ok());
    PgOptions options;
    options.k = 5;
    options.p = 0.4;
    options.seed = 1234;
    options.num_threads = threads;
    RobustPublishOptions policy;
    policy.max_attempts = 1;
    RobustPublisher publisher(options, policy);
    PublishReport report;
    Result<PublishedTable> result =
        publisher.Publish(clinic_.table, clinic_.TaxonomyPointers(), &report);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsInternal()) << result.status().ToString();
    EXPECT_NE(result.status().message().find(failpoints::kPerturbWorker),
              std::string::npos)
        << result.status().ToString();
    EXPECT_FALSE(report.final_status.ok());
    EXPECT_FALSE(report.audit_clean);
    reg().DisableAll();
  }
}

TEST_F(ChaosSweepTest, WorkerFaultEventCarriesWorkerPhaseTag) {
  // Large enough for several perturbation chunks, so with a 2-thread pool
  // the failpoint genuinely fires on pool workers, not just the caller.
  CensusDataset big = GenerateClinic(10000, 8).ValueOrDie();
  obs::ScopedLogCapture capture(obs::LogLevel::kWarn);
  ASSERT_TRUE(reg().Enable(failpoints::kPerturbWorker, "always").ok());
  PgOptions options;
  options.k = 5;
  options.p = 0.4;
  options.seed = 4321;
  options.num_threads = 2;
  RobustPublishOptions policy;
  policy.max_attempts = 1;
  RobustPublisher publisher(options, policy);
  Result<PublishedTable> result =
      publisher.Publish(big.table, big.TaxonomyPointers());
  ASSERT_FALSE(result.ok());
  const auto events = capture.sink().EventsNamed("failpoint_hit");
  ASSERT_GE(events.size(), 1u);
  for (const auto& event : events) {
    const obs::JsonValue* point = event.FindField("point");
    ASSERT_NE(point, nullptr);
    EXPECT_EQ(point->AsString().ValueOrDie(), failpoints::kPerturbWorker);
    const obs::JsonValue* phase = event.FindField("phase");
    ASSERT_NE(phase, nullptr);
    EXPECT_EQ(phase->AsString().ValueOrDie(), "worker_fail");
  }
}

TEST_F(ChaosSweepTest, TransientWorkerFaultIsRetriedToSuccess) {
  ASSERT_TRUE(reg().Enable(failpoints::kPerturbWorker, "times(1)").ok());
  PgOptions options;
  options.k = 5;
  options.p = 0.4;
  options.seed = 99;
  options.num_threads = 2;
  RobustPublisher publisher(options, RobustPublishOptions{});
  PublishReport report;
  Result<PublishedTable> result =
      publisher.Publish(clinic_.table, clinic_.TaxonomyPointers(), &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(report.attempts.size(), 2u);
  EXPECT_TRUE(report.attempts[0].outcome.IsInternal());
  EXPECT_TRUE(report.attempts[1].outcome.ok());
  EXPECT_TRUE(report.audit_clean);
}

}  // namespace
}  // namespace pgpub
