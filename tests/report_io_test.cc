/// \file report_io_test.cc
/// PublishReport JSON (de)serialization: lossless round-trips (including
/// seeds beyond int64 range and non-OK statuses), file output, and strict
/// rejection of malformed documents.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/report_io.h"
#include "core/robust_publisher.h"
#include "obs/json.h"

namespace pgpub {
namespace {

PublishReport MakeReport() {
  PublishReport report;
  PublishReport::Attempt first;
  first.number = 1;
  first.generalizer = PgOptions::Generalizer::kTds;
  first.seed = 2008;
  first.outcome = Status::Internal("injected failure: publish.perturb");
  first.audit = Status::OK();
  first.audited = false;
  first.elapsed_ms = 0.75;
  report.attempts.push_back(first);

  PublishReport::Attempt second;
  second.number = 2;
  second.generalizer = PgOptions::Generalizer::kIncognito;
  // Above int64 range: must survive via the uint64 JSON kind.
  second.seed = 18446744073709551615ull;
  second.outcome = Status::OK();
  second.audit = Status::OK();
  second.audited = true;
  second.elapsed_ms = 12.5;
  report.attempts.push_back(second);

  report.fallback_used = true;
  report.audit_clean = true;
  report.final_status = Status::OK();
  report.total_ms = 13.25;
  return report;
}

void ExpectStatusEq(const Status& a, const Status& b) {
  EXPECT_EQ(a.code(), b.code());
  EXPECT_EQ(a.message(), b.message());
}

void ExpectReportEq(const PublishReport& a, const PublishReport& b) {
  ASSERT_EQ(a.attempts.size(), b.attempts.size());
  for (size_t i = 0; i < a.attempts.size(); ++i) {
    SCOPED_TRACE("attempt " + std::to_string(i));
    EXPECT_EQ(a.attempts[i].number, b.attempts[i].number);
    EXPECT_EQ(a.attempts[i].generalizer, b.attempts[i].generalizer);
    EXPECT_EQ(a.attempts[i].seed, b.attempts[i].seed);
    ExpectStatusEq(a.attempts[i].outcome, b.attempts[i].outcome);
    ExpectStatusEq(a.attempts[i].audit, b.attempts[i].audit);
    EXPECT_EQ(a.attempts[i].audited, b.attempts[i].audited);
    EXPECT_DOUBLE_EQ(a.attempts[i].elapsed_ms, b.attempts[i].elapsed_ms);
  }
  EXPECT_EQ(a.fallback_used, b.fallback_used);
  EXPECT_EQ(a.audit_clean, b.audit_clean);
  ExpectStatusEq(a.final_status, b.final_status);
  EXPECT_DOUBLE_EQ(a.total_ms, b.total_ms);
}

TEST(ReportIoTest, RoundTripIsLossless) {
  const PublishReport report = MakeReport();
  const std::string text = PublishReportToJsonString(report);
  const auto parsed = PublishReportFromJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectReportEq(report, *parsed);
  // Serializing the parsed report reproduces the text byte for byte.
  EXPECT_EQ(PublishReportToJsonString(*parsed), text);
}

TEST(ReportIoTest, EmptyReportRoundTrips) {
  const PublishReport report;  // zero attempts, default statuses
  const auto parsed = PublishReportFromJson(PublishReportToJsonString(report));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectReportEq(report, *parsed);
}

/// Every StatusCode must read back, not just the ones a clean run emits:
/// an engine request that ran past its deadline reports DeadlineExceeded.
/// Codes are enumerated until StatusCodeToString stops naming them, so a
/// newly appended code is covered without editing this test.
TEST(ReportIoTest, EveryStatusCodeRoundTrips) {
  int codes = 0;
  for (int c = 0; StatusCodeToString(static_cast<StatusCode>(c)) != "Unknown";
       ++c) {
    const auto code = static_cast<StatusCode>(c);
    SCOPED_TRACE(std::string(StatusCodeToString(code)));
    PublishReport report = MakeReport();
    report.attempts[0].outcome = Status(code, "attempt outcome");
    report.final_status = Status(code, "final status");
    const auto parsed =
        PublishReportFromJson(PublishReportToJsonString(report));
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    if (parsed.ok()) ExpectReportEq(report, *parsed);
    ++codes;
  }
  EXPECT_GE(codes, 12);
}

TEST(ReportIoTest, JsonDocumentShape) {
  const obs::JsonValue doc = PublishReportToJson(MakeReport());
  EXPECT_EQ(doc.Find("schema_version")->AsInt64().ValueOrDie(), 1);
  ASSERT_EQ(doc.Find("attempts")->size(), 2u);
  const obs::JsonValue* second = doc.Find("attempts")->At(1).ValueOrDie();
  EXPECT_EQ(second->Find("generalizer")->AsString().ValueOrDie(),
            "incognito");
  EXPECT_EQ(second->Find("seed")->AsUint64().ValueOrDie(),
            18446744073709551615ull);
  const obs::JsonValue* outcome =
      doc.Find("attempts")->At(0).ValueOrDie()->Find("outcome");
  EXPECT_EQ(outcome->Find("code")->AsString().ValueOrDie(), "Internal");
  EXPECT_EQ(outcome->Find("message")->AsString().ValueOrDie(),
            "injected failure: publish.perturb");
}

TEST(ReportIoTest, WriteCreatesReadableFile) {
  const std::string path = testing::TempDir() + "/report_io_test.json";
  const PublishReport report = MakeReport();
  ASSERT_TRUE(WritePublishReportJson(report, path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const auto parsed = PublishReportFromJson(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectReportEq(report, *parsed);
  std::remove(path.c_str());
}

TEST(ReportIoTest, WriteToUnwritablePathFails) {
  EXPECT_FALSE(
      WritePublishReportJson(PublishReport(), "/nonexistent-dir/x.json")
          .ok());
}

TEST(ReportIoTest, RejectsMalformedDocuments) {
  // Not JSON at all.
  EXPECT_FALSE(PublishReportFromJson("not json").ok());
  // Wrong schema version.
  EXPECT_FALSE(PublishReportFromJson(
                   "{\"schema_version\":2,\"attempts\":[],"
                   "\"fallback_used\":false,\"audit_clean\":false,"
                   "\"final_status\":{\"code\":\"OK\",\"message\":\"\"},"
                   "\"total_ms\":0.0}")
                   .ok());
  // Missing members.
  EXPECT_FALSE(PublishReportFromJson("{\"schema_version\":1}").ok());
  // Unknown generalizer name.
  EXPECT_FALSE(PublishReportFromJson(
                   "{\"schema_version\":1,\"attempts\":[{\"number\":1,"
                   "\"generalizer\":\"mondrian\",\"seed\":1,"
                   "\"outcome\":{\"code\":\"OK\",\"message\":\"\"},"
                   "\"audit\":{\"code\":\"OK\",\"message\":\"\"},"
                   "\"audited\":true,\"elapsed_ms\":0.0}],"
                   "\"fallback_used\":false,\"audit_clean\":true,"
                   "\"final_status\":{\"code\":\"OK\",\"message\":\"\"},"
                   "\"total_ms\":0.0}")
                   .ok());
  // Unknown status code.
  EXPECT_FALSE(PublishReportFromJson(
                   "{\"schema_version\":1,\"attempts\":[],"
                   "\"fallback_used\":false,\"audit_clean\":false,"
                   "\"final_status\":{\"code\":\"Gone\",\"message\":\"\"},"
                   "\"total_ms\":0.0}")
                   .ok());
}

}  // namespace
}  // namespace pgpub
