#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/guarantees.h"
#include "core/published_table.h"
#include "hierarchy/taxonomy.h"
#include "table/table.h"

namespace pgpub {

class PublishHooks;  // core/publish_hooks.h — serving-layer cache injection.
class ValidatedDataset;  // core/validate.h — a screened (table, taxonomies).

/// Declarative privacy target: instead of fixing p, ask the publisher to
/// pick the largest p (best utility) that establishes the guarantee.
struct PrivacyTarget {
  enum class Kind {
    kNone,       ///< Use PgOptions::p directly.
    kRho,        ///< ρ₁-to-ρ₂ guarantee (Definition 2 / Theorem 2).
    kDelta,      ///< Δ-growth guarantee (Definition 3 / Theorem 3).
  };
  Kind kind = Kind::kNone;
  double rho1 = 0.2;
  double rho2 = 0.5;
  double delta = 0.2;
  /// Skew bound of the adversary background knowledge to defend against.
  double lambda = 0.1;
};

/// Options for PgPublisher.
struct PgOptions {
  /// Cardinality parameter s ∈ (0,1]: |𝒟*| <= |𝒟|·s. Ignored when k > 0.
  double s = 1.0;
  /// Minimum QI-group size; 0 means derive k = ceil(1/s).
  int k = 0;
  /// Retention probability; a negative value means "solve from `target`".
  double p = -1.0;
  /// Privacy target used when p < 0.
  PrivacyTarget target;
  /// Master seed for perturbation and sampling.
  uint64_t seed = 0x5eed;

  enum class Generalizer { kTds, kIncognito };
  Generalizer generalizer = Generalizer::kTds;

  /// Optional category boundaries over the sensitive domain (ascending
  /// start codes, first must be 0) used as the TDS information-gain class;
  /// empty means each sensitive code is its own class.
  std::vector<int32_t> class_category_starts;

  /// Record per-tuple provenance (evaluation/attack-simulation only).
  bool keep_provenance = false;

  /// Worker threads for the parallel phases (perturbation, generalization
  /// scoring, breach trials downstream). 0 = environment default
  /// (`PGPUB_THREADS`, else hardware_concurrency); 1 = the legacy serial
  /// path; n > 1 = exactly n workers. The published table and every
  /// guarantee number are bit-identical for all values — this knob trades
  /// wall-clock only (see DESIGN.md §9).
  int num_threads = 0;

  /// The one home of every option-bundle rule: k >= 0, s in (0,1] when k
  /// is derived from it, p in [0,1] or negative with a well-formed
  /// solvable target, num_threads >= 0, and structurally valid
  /// class_category_starts. Every entry point funnels through this, so
  /// callers see one error taxonomy. Checks that also need |U^s| live in
  /// ValidatePgOptions (core/validate.h), which calls this first.
  [[nodiscard]] Status Validate() const;

  /// Partial validators behind Validate() — shared with EffectiveK /
  /// EffectiveRetention so a rule is never restated.
  [[nodiscard]] Status ValidateCardinality() const;   ///< k / s rules.
  [[nodiscard]] Status ValidateRetentionSpec() const; ///< p / target rules.
  /// Structural class-category rules; bounds are additionally checked
  /// against |U^s| when `sensitive_domain_size` >= 0.
  [[nodiscard]] Status ValidateClassCategories(int sensitive_domain_size) const;
};

/// \brief End-to-end perturbed generalization (Section IV): Phase 1
/// perturbation, Phase 2 global-recoding k-anonymous generalization,
/// Phase 3 stratified sampling.
class PgPublisher {
 public:
  explicit PgPublisher(PgOptions options) : options_(std::move(options)) {}

  /// Publishes `microdata`. `taxonomies` is parallel to the schema's QI
  /// attributes, one non-null taxonomy each (InvalidArgument otherwise).
  /// Screens them with ValidateDataset, then runs the pipeline below.
  [[nodiscard]] Result<PublishedTable> Publish(
      const Table& microdata,
      const std::vector<const Taxonomy*>& taxonomies) const;

  /// The pipeline over a screened dataset; checks only ValidateRequest.
  /// `hooks` (optional) is the serving-layer injection point
  /// (core/publish_hooks.h): it can share a long-lived pool lease and
  /// memoize the Phase-2 recoding. A null hooks pointer is the one-shot
  /// path, byte-for-byte; a cache hit must be byte-equivalent to the
  /// computation it skips, so the published table is identical either way.
  [[nodiscard]] Result<PublishedTable> Publish(
      const ValidatedDataset& dataset, PublishHooks* hooks = nullptr) const;

  /// The effective k for a given options bundle: options.k, or ceil(1/s).
  [[nodiscard]] static Result<int> EffectiveK(const PgOptions& options);

  /// The effective retention probability: options.p, or the largest p
  /// establishing options.target (needs |U^s|).
  [[nodiscard]] static Result<double> EffectiveRetention(const PgOptions& options, int k,
                                           int sensitive_domain_size);

 private:
  PgOptions options_;
};

}  // namespace pgpub
