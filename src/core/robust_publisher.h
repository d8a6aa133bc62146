#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/pg_publisher.h"
#include "core/published_table.h"

namespace pgpub {

/// Publish policy of RobustPublisher.
struct RobustPublishOptions {
  /// Attempts per generalizer before giving up (>= 1). Attempt i > 1
  /// reruns the pipeline with a deterministically reseeded RNG, so a
  /// transient phase failure (or an injected one) does not kill the
  /// release, while identical inputs still reproduce bit-for-bit.
  int max_attempts = 3;

  /// When the configured generalizer exhausts its attempts, retry the
  /// whole budget with the other one (TDS -> Incognito).
  bool allow_generalizer_fallback = true;

  /// Policy-bundle rules (max_attempts >= 1), checked once per entry
  /// point — the same consolidation contract as PgOptions::Validate.
  [[nodiscard]] Status Validate() const;
};

/// \brief Structured account of one RobustPublisher::Publish call —
/// everything an operator needs to trust (or debug) a release.
struct PublishReport {
  struct Attempt {
    int number = 0;  ///< 1-based, counted across fallback rounds.
    PgOptions::Generalizer generalizer = PgOptions::Generalizer::kTds;
    uint64_t seed = 0;    ///< Master seed used by this attempt.
    Status outcome;       ///< Pipeline result of the attempt.
    Status audit;         ///< Audit result; OK when skipped or clean.
    bool audited = false; ///< Whether the audit ran (it does whenever
                          ///< the attempt produced a candidate).
    double elapsed_ms = 0.0;
  };

  /// Cross-run cache provenance, filled in by a caching serving layer
  /// (src/engine) after the publish: how many engine-cache lookups this
  /// request hit vs missed, and how many entries it evicted. All-zero with
  /// `enabled == false` for one-shot publishes. Provenance only — the
  /// published bytes are identical whichever way a lookup went.
  struct CacheActivity {
    bool enabled = false;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    /// hits / (hits + misses); 0 when no lookup ran.
    double HitRate() const;
  };

  std::vector<Attempt> attempts;
  bool fallback_used = false;    ///< A non-configured generalizer won.
  bool audit_clean = false;      ///< Final release passed the full audit.
  Status final_status;           ///< Mirrors the Publish return status.
  double total_ms = 0.0;
  CacheActivity cache;           ///< See CacheActivity.

  /// Human-readable multi-line rendering for logs and CLI output.
  std::string Summary() const;
};

/// \brief Self-auditing, fail-closed wrapper around PgPublisher.
///
/// A PG release that silently violates its declared guarantee is worse
/// than no release (the paper's guarantees must hold against adversaries
/// who know the algorithm — Lemma 2). RobustPublisher therefore:
///
///  1. screens the dataset once (ValidateDataset) and the request
///     (ValidateRequest); malformed input is permanent — no retry,
///  2. runs PgPublisher with bounded retries, reseeding deterministically
///     per attempt, and optionally falls back TDS -> Incognito,
///  3. audits every candidate release with VerifyPublication and
///     re-checks the declared ρ₁-to-ρ₂ / Δ-growth target against the
///     parameters actually used, and
///  4. never returns a table that failed any part of the audit.
///
/// Every decision is recorded in a PublishReport.
class RobustPublisher {
 public:
  explicit RobustPublisher(PgOptions options,
                           RobustPublishOptions policy = {})
      : options_(std::move(options)), policy_(policy) {}

  /// Publishes `microdata` under the fail-closed policy. On success the
  /// returned table passed the full audit; on failure no table escapes.
  /// `report`, when non-null, receives the attempt-by-attempt account
  /// regardless of the outcome. Screens the dataset once with
  /// ValidateDataset, whatever the retries, then runs the pipeline below.
  [[nodiscard]] Result<PublishedTable> Publish(
      const Table& microdata,
      const std::vector<const Taxonomy*>& taxonomies,
      PublishReport* report = nullptr) const;

  /// The pipeline over a screened dataset; checks only the policy and
  /// ValidateRequest. `hooks` (optional) is forwarded to every PgPublisher
  /// attempt — see PgPublisher::Publish.
  [[nodiscard]] Result<PublishedTable> Publish(
      const ValidatedDataset& dataset, PublishReport* report = nullptr,
      PublishHooks* hooks = nullptr) const;

  /// The master seed attempt `number` (1-based) derives its RNG from.
  /// Attempt 1 uses the options seed unchanged, so a RobustPublisher with
  /// max_attempts = 1 reproduces PgPublisher exactly.
  static uint64_t AttemptSeed(uint64_t base_seed, int number);

 private:
  /// Audits a candidate release; OK only when VerifyPublication passes
  /// and the declared privacy target (if any) is still established.
  [[nodiscard]] Status AuditRelease(const ValidatedDataset& dataset,
                                    const PublishedTable& published) const;

  PgOptions options_;
  RobustPublishOptions policy_;
};

}  // namespace pgpub
