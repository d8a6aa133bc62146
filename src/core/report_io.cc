#include "core/report_io.h"

#include <fstream>

namespace pgpub {

namespace {

using obs::JsonValue;

constexpr int kSchemaVersion = 1;

JsonValue StatusToJson(const Status& status) {
  JsonValue out = JsonValue::Object();
  out.Set("code", StatusCodeToString(status.code()));
  out.Set("message", status.message());
  return out;
}

Result<StatusCode> StatusCodeFromName(std::string_view name) {
  for (int c = 0; c <= static_cast<int>(kLastStatusCode); ++c) {
    const auto code = static_cast<StatusCode>(c);
    if (StatusCodeToString(code) == name) return code;
  }
  return Status::InvalidArgument("unknown status code '" + std::string(name) +
                                 "'");
}

// Out-param instead of Result<Status>: Status cannot be its own payload.
Status StatusFromJson(const JsonValue& v, Status* out) {
  ASSIGN_OR_RETURN(const JsonValue* code_v, v.Get("code"));
  ASSIGN_OR_RETURN(std::string code_name, code_v->AsString());
  ASSIGN_OR_RETURN(StatusCode code, StatusCodeFromName(code_name));
  ASSIGN_OR_RETURN(const JsonValue* message_v, v.Get("message"));
  ASSIGN_OR_RETURN(std::string message, message_v->AsString());
  *out = Status(code, std::move(message));
  return Status::OK();
}

std::string_view GeneralizerName(PgOptions::Generalizer g) {
  return g == PgOptions::Generalizer::kTds ? "tds" : "incognito";
}

Result<PgOptions::Generalizer> GeneralizerFromName(std::string_view name) {
  if (name == "tds") return PgOptions::Generalizer::kTds;
  if (name == "incognito") return PgOptions::Generalizer::kIncognito;
  return Status::InvalidArgument("unknown generalizer '" + std::string(name) +
                                 "' (want tds|incognito)");
}

Result<PublishReport::Attempt> AttemptFromJson(const JsonValue& v) {
  PublishReport::Attempt attempt;
  ASSIGN_OR_RETURN(const JsonValue* number_v, v.Get("number"));
  ASSIGN_OR_RETURN(int64_t number, number_v->AsInt64());
  attempt.number = static_cast<int>(number);
  ASSIGN_OR_RETURN(const JsonValue* generalizer_v, v.Get("generalizer"));
  ASSIGN_OR_RETURN(std::string generalizer_name, generalizer_v->AsString());
  ASSIGN_OR_RETURN(attempt.generalizer,
                   GeneralizerFromName(generalizer_name));
  ASSIGN_OR_RETURN(const JsonValue* seed_v, v.Get("seed"));
  ASSIGN_OR_RETURN(attempt.seed, seed_v->AsUint64());
  ASSIGN_OR_RETURN(const JsonValue* outcome_v, v.Get("outcome"));
  RETURN_IF_ERROR(StatusFromJson(*outcome_v, &attempt.outcome));
  ASSIGN_OR_RETURN(const JsonValue* audit_v, v.Get("audit"));
  RETURN_IF_ERROR(StatusFromJson(*audit_v, &attempt.audit));
  ASSIGN_OR_RETURN(const JsonValue* audited_v, v.Get("audited"));
  ASSIGN_OR_RETURN(attempt.audited, audited_v->AsBool());
  ASSIGN_OR_RETURN(const JsonValue* elapsed_v, v.Get("elapsed_ms"));
  ASSIGN_OR_RETURN(attempt.elapsed_ms, elapsed_v->AsDouble());
  return attempt;
}

}  // namespace

obs::JsonValue PublishReportToJson(const PublishReport& report) {
  JsonValue out = JsonValue::Object();
  out.Set("schema_version", kSchemaVersion);
  JsonValue attempts = JsonValue::Array();
  for (const PublishReport::Attempt& a : report.attempts) {
    JsonValue attempt = JsonValue::Object();
    attempt.Set("number", a.number);
    attempt.Set("generalizer", GeneralizerName(a.generalizer));
    attempt.Set("seed", a.seed);
    attempt.Set("outcome", StatusToJson(a.outcome));
    attempt.Set("audit", StatusToJson(a.audit));
    attempt.Set("audited", a.audited);
    attempt.Set("elapsed_ms", a.elapsed_ms);
    attempts.Append(std::move(attempt));
  }
  out.Set("attempts", std::move(attempts));
  out.Set("fallback_used", report.fallback_used);
  out.Set("audit_clean", report.audit_clean);
  out.Set("final_status", StatusToJson(report.final_status));
  out.Set("total_ms", report.total_ms);
  JsonValue cache = JsonValue::Object();
  cache.Set("enabled", report.cache.enabled);
  cache.Set("hits", report.cache.hits);
  cache.Set("misses", report.cache.misses);
  cache.Set("evictions", report.cache.evictions);
  cache.Set("hit_rate", report.cache.HitRate());
  out.Set("cache", std::move(cache));
  return out;
}

std::string PublishReportToJsonString(const PublishReport& report) {
  return PublishReportToJson(report).Dump(2) + "\n";
}

Result<PublishReport> PublishReportFromJson(std::string_view text) {
  ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(text));
  if (!doc.is_object()) {
    return Status::InvalidArgument("publish report: not a JSON object");
  }
  ASSIGN_OR_RETURN(const JsonValue* version_v, doc.Get("schema_version"));
  ASSIGN_OR_RETURN(int64_t version, version_v->AsInt64());
  if (version != kSchemaVersion) {
    return Status::InvalidArgument("publish report: unsupported schema_version " +
                                   std::to_string(version));
  }
  PublishReport report;
  ASSIGN_OR_RETURN(const JsonValue* attempts_v, doc.Get("attempts"));
  if (!attempts_v->is_array()) {
    return Status::InvalidArgument("publish report: attempts is not an array");
  }
  report.attempts.reserve(attempts_v->size());
  for (const JsonValue& attempt_v : attempts_v->items()) {
    ASSIGN_OR_RETURN(PublishReport::Attempt attempt,
                     AttemptFromJson(attempt_v));
    report.attempts.push_back(std::move(attempt));
  }
  ASSIGN_OR_RETURN(const JsonValue* fallback_v, doc.Get("fallback_used"));
  ASSIGN_OR_RETURN(report.fallback_used, fallback_v->AsBool());
  ASSIGN_OR_RETURN(const JsonValue* clean_v, doc.Get("audit_clean"));
  ASSIGN_OR_RETURN(report.audit_clean, clean_v->AsBool());
  ASSIGN_OR_RETURN(const JsonValue* final_v, doc.Get("final_status"));
  RETURN_IF_ERROR(StatusFromJson(*final_v, &report.final_status));
  ASSIGN_OR_RETURN(const JsonValue* total_v, doc.Get("total_ms"));
  ASSIGN_OR_RETURN(report.total_ms, total_v->AsDouble());
  // Optional (added after schema_version 1 shipped): absent means the
  // default no-cache activity, so pre-engine documents still parse.
  if (const JsonValue* cache_v = doc.Find("cache"); cache_v != nullptr) {
    ASSIGN_OR_RETURN(const JsonValue* enabled_v, cache_v->Get("enabled"));
    ASSIGN_OR_RETURN(report.cache.enabled, enabled_v->AsBool());
    ASSIGN_OR_RETURN(const JsonValue* hits_v, cache_v->Get("hits"));
    ASSIGN_OR_RETURN(report.cache.hits, hits_v->AsUint64());
    ASSIGN_OR_RETURN(const JsonValue* misses_v, cache_v->Get("misses"));
    ASSIGN_OR_RETURN(report.cache.misses, misses_v->AsUint64());
    ASSIGN_OR_RETURN(const JsonValue* evict_v, cache_v->Get("evictions"));
    ASSIGN_OR_RETURN(report.cache.evictions, evict_v->AsUint64());
  }
  return report;
}

Status WritePublishReportJson(const PublishReport& report,
                              const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open report file '" + path + "'");
  }
  out << PublishReportToJsonString(report);
  out.flush();
  if (!out) {
    return Status::IOError("failed writing report file '" + path + "'");
  }
  return Status::OK();
}

}  // namespace pgpub
