#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/parallel/thread_pool.h"
#include "core/pg_publisher.h"
#include "hierarchy/recoding.h"

namespace pgpub {

/// What Phase 2 is about to compute — everything the result depends on
/// besides the dataset and taxonomy family themselves (those are fixed per
/// hooks instance; see PublishHooks). For TDS the class labels feed the
/// information-gain score, so they are part of the identity; Incognito
/// ignores them and leaves `class_labels` null, which lets requests that
/// differ only in perturbation share one lattice search.
struct RecodingQuery {
  PgOptions::Generalizer generalizer = PgOptions::Generalizer::kTds;
  int k = 0;
  /// Null for Incognito; for TDS, one label in [0, num_classes) per row.
  const std::vector<int32_t>* class_labels = nullptr;
  int num_classes = 0;
};

/// \brief Injection points PgPublisher/RobustPublisher offer a multi-request
/// serving layer (src/engine). One hooks instance is bound to ONE
/// (dataset, taxonomy family) pair, which is why the query above carries
/// only the per-request identity.
///
/// Every default below is a no-op, so `PublishHooks base;` behaves exactly
/// like passing no hooks at all. Contract for cache implementations: a
/// Lookup hit MUST return a value byte-identical to what the skipped
/// computation would have produced for this query — the differential suite
/// in tests/engine_test.cc holds implementations to that.
class PublishHooks {
 public:
  virtual ~PublishHooks() = default;

  /// Attribution label for observability: spans and per-tenant metrics
  /// emitted while publishing under these hooks carry this value as their
  /// `tenant` attribute. Empty (the default) means "unattributed" and
  /// suppresses the attribute entirely, so standalone pipelines stay
  /// byte-identical in their trace output. The returned view must outlive
  /// the publish call (hooks instances are per-tenant and long-lived).
  virtual std::string_view tenant_label() const { return {}; }

  /// Long-lived pool lease shared across requests; null means "resolve a
  /// lease per call from PgOptions::num_threads" (the one-shot behaviour).
  virtual const PoolLease* pool_lease() const { return nullptr; }

  /// Deadline-budget checkpoint. PgPublisher calls this between phases
  /// (before perturbation, generalization and sampling) and
  /// RobustPublisher before every attempt, naming the work about to
  /// start; a serving layer with a per-request deadline returns
  /// DeadlineExceeded here to stop a request that can no longer finish in
  /// time from wasting Phase-2 work. Fail-closed contract: a non-OK
  /// return aborts the publish with that Status — no partial table
  /// escapes. The default never expires.
  [[nodiscard]] virtual Status CheckDeadline(const char* about_to_run) {
    (void)about_to_run;
    return Status::OK();
  }

  [[nodiscard]] virtual std::optional<GlobalRecoding> LookupRecoding(
      const RecodingQuery& query) {
    (void)query;
    return std::nullopt;
  }
  virtual void StoreRecoding(const RecodingQuery& query,
                             const GlobalRecoding& recoding) {
    (void)query;
    (void)recoding;
  }
};

}  // namespace pgpub
