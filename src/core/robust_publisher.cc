#include "core/robust_publisher.h"

#include <chrono>
#include <string_view>

#include "common/failpoint.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/publish_hooks.h"
#include "core/validate.h"
#include "core/verify.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pgpub {

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

const char* GeneralizerName(PgOptions::Generalizer g) {
  return g == PgOptions::Generalizer::kTds ? "tds" : "incognito";
}

/// Permanent failures describe the input, not the attempt: retrying with
/// a fresh seed cannot fix them, so the policy stops immediately.
bool IsPermanent(const Status& status) {
  return status.IsInvalidArgument() || status.IsFailedPrecondition() ||
         status.IsNotFound() || status.IsUnimplemented() ||
         // A deadline does not reset between attempts: once a phase (or a
         // serving-layer hook) reports it exceeded, retrying can only
         // exceed it further.
         status.IsDeadlineExceeded();
}

}  // namespace

Status RobustPublishOptions::Validate() const {
  if (max_attempts < 1) {
    return Status::InvalidArgument("max_attempts must be >= 1, got " +
                                   std::to_string(max_attempts));
  }
  return Status::OK();
}

double PublishReport::CacheActivity::HitRate() const {
  const uint64_t lookups = hits + misses;
  if (lookups == 0) return 0.0;
  return static_cast<double>(hits) / static_cast<double>(lookups);
}

std::string PublishReport::Summary() const {
  std::string out = StrFormat(
      "publish %s after %zu attempt(s) in %.1f ms%s\n",
      final_status.ok() ? "succeeded" : "FAILED", attempts.size(), total_ms,
      fallback_used ? " (generalizer fallback engaged)" : "");
  for (const Attempt& a : attempts) {
    out += StrFormat("  attempt %d [%s, seed %llu]: %s", a.number,
                     GeneralizerName(a.generalizer),
                     static_cast<unsigned long long>(a.seed),
                     a.outcome.ToString().c_str());
    if (a.audited) {
      out += StrFormat("; audit: %s", a.audit.ToString().c_str());
    }
    out += StrFormat(" (%.1f ms)\n", a.elapsed_ms);
  }
  out += StrFormat("  audit %s; final: %s",
                   audit_clean ? "clean" : "not clean",
                   final_status.ToString().c_str());
  return out;
}

uint64_t RobustPublisher::AttemptSeed(uint64_t base_seed, int number) {
  if (number <= 1) return base_seed;
  // Deterministic reseed: the attempt index keys an independent SplitMix64
  // stream, so attempt i is reproducible without replaying attempts < i.
  SplitMix64 sm(base_seed ^ (0x9e3779b97f4a7c15ULL *
                             static_cast<uint64_t>(number)));
  return sm.Next();
}

Status RobustPublisher::AuditRelease(const ValidatedDataset& dataset,
                                     const PublishedTable& published) const {
  PGPUB_FAILPOINT(failpoints::kPublishAudit);
  RETURN_IF_ERROR(VerifyPublication(dataset.microdata, published)
                      .WithContext("release audit"));

  // Re-establish the declared guarantee from the parameters the release
  // actually used — a solver or plumbing bug must not ship quietly.
  if (options_.p < 0.0 &&
      options_.target.kind != PrivacyTarget::Kind::kNone) {
    PgParams params;
    params.p = published.retention_p();
    params.k = published.k();
    params.lambda = options_.target.lambda;
    params.sensitive_domain_size = dataset.sensitive_domain_size;
    if (options_.target.kind == PrivacyTarget::Kind::kRho &&
        !SatisfiesRhoGuarantee(params, options_.target.rho1,
                               options_.target.rho2)) {
      return Status::Internal(StrFormat(
          "release audit: published p=%.6f, k=%d does not establish the "
          "declared %.3f-to-%.3f guarantee",
          params.p, params.k, options_.target.rho1, options_.target.rho2));
    }
    if (options_.target.kind == PrivacyTarget::Kind::kDelta &&
        !SatisfiesDeltaGuarantee(params, options_.target.delta)) {
      return Status::Internal(StrFormat(
          "release audit: published p=%.6f, k=%d does not establish the "
          "declared %.3f-growth guarantee",
          params.p, params.k, options_.target.delta));
    }
  }
  return Status::OK();
}

Result<PublishedTable> RobustPublisher::Publish(
    const Table& microdata, const std::vector<const Taxonomy*>& taxonomies,
    PublishReport* report) const {
  Result<ValidatedDataset> dataset = ValidateDataset(microdata, taxonomies);
  if (dataset.ok()) return Publish(*dataset, report);
  if (report != nullptr) {
    *report = PublishReport{};
    report->final_status = dataset.status();
  }
  return dataset.status();
}

Result<PublishedTable> RobustPublisher::Publish(
    const ValidatedDataset& dataset, PublishReport* report,
    PublishHooks* hooks) const {
  PublishReport local;
  PublishReport& rep = report != nullptr ? *report : local;
  rep = PublishReport{};
  const std::string_view tenant =
      hooks != nullptr ? hooks->tenant_label() : std::string_view{};
  obs::ScopedSpan publish_span("robust.publish");
  if (!tenant.empty()) publish_span.Attr("tenant", tenant);
  const auto publish_start = std::chrono::steady_clock::now();
  auto finish = [&](Status status) {
    rep.final_status = status;
    rep.total_ms = MsSince(publish_start);
    PGPUB_LOG_ERROR("publish.failed")
        .Field("attempts", rep.attempts.size())
        .Field("status", status.ToString());
    return status;
  };

  // A malformed request is permanent: retrying cannot repair it.
  Status screen = policy_.Validate();
  if (screen.ok()) screen = ValidateRequest(dataset, options_);
  if (!screen.ok()) return finish(screen);

  std::vector<PgOptions::Generalizer> rounds = {options_.generalizer};
  if (policy_.allow_generalizer_fallback) {
    rounds.push_back(options_.generalizer == PgOptions::Generalizer::kTds
                         ? PgOptions::Generalizer::kIncognito
                         : PgOptions::Generalizer::kTds);
  }

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  Status last_error = Status::Internal("no publish attempt ran");
  int attempt_number = 0;
  for (const PgOptions::Generalizer generalizer : rounds) {
    if (generalizer != options_.generalizer) {
      rep.fallback_used = true;
      metrics.GetCounter("robust.fallbacks")->Add();
      PGPUB_LOG_WARN("publish.fallback")
          .Field("generalizer", GeneralizerName(generalizer))
          .Field("after_attempts", attempt_number);
    }
    for (int i = 1; i <= policy_.max_attempts; ++i) {
      // A serving layer with a per-request deadline can stop the next
      // attempt before it starts (fail-closed, typed).
      if (hooks != nullptr) {
        if (Status st = hooks->CheckDeadline("attempt"); !st.ok()) {
          return finish(st);
        }
      }
      ++attempt_number;
      PublishReport::Attempt attempt;
      attempt.number = attempt_number;
      attempt.generalizer = generalizer;
      attempt.seed = AttemptSeed(options_.seed, attempt_number);
      metrics.GetCounter("robust.attempts")->Add();
      if (attempt_number > 1) metrics.GetCounter("robust.retries")->Add();
      PGPUB_LOG_INFO("publish.attempt")
          .Field("attempt", attempt_number)
          .Field("generalizer", GeneralizerName(generalizer))
          .Field("seed", attempt.seed);
      const auto attempt_start = std::chrono::steady_clock::now();

      PgOptions attempt_options = options_;
      attempt_options.generalizer = generalizer;
      attempt_options.seed = attempt.seed;
      Result<PublishedTable> candidate = [&]() -> Result<PublishedTable> {
        // One span per attempt: retries show up as sibling subtrees under
        // robust.publish, each parenting its own phase spans.
        obs::ScopedSpan attempt_span("robust.attempt");
        attempt_span.Attr("attempt", attempt_number);
        if (!tenant.empty()) attempt_span.Attr("tenant", tenant);
        Result<PublishedTable> result =
            PgPublisher(attempt_options).Publish(dataset, hooks);
        attempt_span.Attr("ok", result.ok());
        return result;
      }();
      attempt.outcome = candidate.status();

      if (candidate.ok()) {
        attempt.audited = true;
        attempt.audit = AuditRelease(dataset, *candidate);
        PGPUB_LOG_INFO("publish.audit")
            .Field("attempt", attempt_number)
            .Field("clean", attempt.audit.ok())
            .Field("status", attempt.audit.ToString());
        if (!attempt.audit.ok()) {
          metrics.GetCounter("robust.audit_failures")->Add();
        }
      }
      attempt.elapsed_ms = MsSince(attempt_start);
      const bool audit_ok = !attempt.audited || attempt.audit.ok();
      const Status failure = !attempt.outcome.ok() ? attempt.outcome
                             : !audit_ok           ? attempt.audit
                                                   : Status::OK();
      rep.attempts.push_back(attempt);

      if (failure.ok()) {
        rep.audit_clean = attempt.audited;
        rep.final_status = Status::OK();
        rep.total_ms = MsSince(publish_start);
        PGPUB_LOG_INFO("publish.succeeded")
            .Field("attempts", attempt_number)
            .Field("fallback_used", rep.fallback_used)
            .Field("audit_clean", rep.audit_clean);
        return std::move(candidate).ValueOrDie();
      }
      last_error = failure;
      // Fail fast on input errors; an audit failure or transient phase
      // error is worth another (reseeded) attempt.
      if (IsPermanent(failure)) {
        return finish(failure);
      }
      PGPUB_LOG_WARN("publish.retry")
          .Field("attempt", attempt_number)
          .Field("reason", failure.ToString());
    }
  }
  // Fail closed: every attempt either failed to publish or produced a
  // table that did not survive the audit — nothing is released.
  return finish(last_error.WithContext(
      StrFormat("publish failed closed after %d attempt(s)",
                attempt_number)));
}

}  // namespace pgpub
