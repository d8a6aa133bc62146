#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/parallel/thread_pool.h"
#include "common/result.h"
#include "core/robust_publisher.h"
#include "core/validate.h"
#include "engine/lru_cache.h"
#include "hierarchy/recoding.h"
#include "hierarchy/taxonomy.h"
#include "table/table.h"

namespace pgpub::engine {

/// Configuration of a PublicationEngine.
struct EngineOptions {
  /// Worker threads for every request served by this engine (same 0/1/n
  /// semantics as PgOptions::num_threads). The engine resolves one
  /// PoolLease at Create and shares it across requests, so per-request
  /// `PgOptions::num_threads` values are ignored.
  int num_threads = 0;

  /// Capacity of the Phase-2 recoding cache. Entries are whole
  /// GlobalRecodings (a few KB each); the SAL request grids of Section VII
  /// sweep a handful of k values, so a small cache already captures them.
  size_t recoding_cache_capacity = 32;

  /// Fail-closed policy applied to every request (attempts, fallback,
  /// release audit) — the engine serves through RobustPublisher.
  RobustPublishOptions robust;

  /// Attribution label stamped on every span and per-tenant metric this
  /// engine's requests emit (PublishHooks::tenant_label). Empty means
  /// unattributed — standalone engines trace exactly like the bare
  /// publisher. The serving layer sets this to the tenant key.
  std::string tenant_label;

  /// Clock used for per-request deadline checks, returning monotonic
  /// nanoseconds. Null (the default) reads std::chrono::steady_clock; a
  /// serving layer injects its own clock here so engine deadlines and
  /// server deadlines agree (and so tests can drive them manually).
  std::function<uint64_t()> now_nanos;

  [[nodiscard]] Status Validate() const;
};

/// One publication request against the engine's dataset, served through
/// RobustPublisher with the engine-owned pool and recoding cache.
struct PublishRequest {
  PgOptions options;

  /// Absolute deadline on the engine clock (EngineOptions::now_nanos), in
  /// nanoseconds; 0 means none. Checked between publish phases via
  /// PublishHooks::CheckDeadline, so an expired request stops before it
  /// wastes Phase-2 work and fails closed with DeadlineExceeded.
  uint64_t deadline_nanos = 0;
};

/// \brief Multi-request publication server over one dataset + taxonomy
/// family (DESIGN.md §10).
///
/// Owns the microdata, its taxonomies, a resolved thread-pool lease, and
/// one recoding cache: Phase-2 generalizations keyed by (generalizer, k,
/// class-label fingerprint) — the dominant per-request cost. TDS keys
/// include the perturbed class labels its information gain consumed;
/// Incognito ignores labels, so one lattice search is shared by every
/// request that differs only in seed or retention. Retention p is solved
/// per request: its closed-form bisection costs microseconds.
///
/// Create screens the dataset once with ValidateDataset (core/validate.h)
/// and keeps the result; requests check only their options. Determinism
/// contract: a cache hit is byte-identical to the computation it
/// replaces, so whether a request is served warm or cold never changes
/// the published bytes — only `PublishReport::cache` and timings differ.
/// The cache-equivalence suite in tests/engine_test.cc pins this.
///
/// Publish may be called from one thread at a time (requests
/// internally fan out across the engine's pool; nested data parallelism is
/// rejected by ParallelFor anyway).
class PublicationEngine {
 public:
  /// Validates and takes ownership of the dataset. `taxonomies` is
  /// parallel to the schema's QI attributes.
  [[nodiscard]] static Result<std::unique_ptr<PublicationEngine>> Create(
      Table microdata, std::vector<Taxonomy> taxonomies,
      EngineOptions options = {});

  PublicationEngine(const PublicationEngine&) = delete;
  PublicationEngine& operator=(const PublicationEngine&) = delete;
  ~PublicationEngine();

  /// Serves one request fail-closed. `report`, when non-null, additionally
  /// receives this request's recoding-cache activity in `report->cache`.
  [[nodiscard]] Result<PublishedTable> Publish(const PublishRequest& request,
                                               PublishReport* report =
                                                   nullptr);

  const Table& microdata() const { return microdata_; }
  std::vector<const Taxonomy*> TaxonomyPointers() const {
    return dataset_->taxonomies;
  }
  int num_threads() const { return lease_.num_threads(); }

  CacheStats recoding_cache_stats() const { return recoding_cache_.stats(); }

 private:
  class Hooks;

  /// (generalizer, k, class-label fingerprint; 0 for Incognito).
  using RecodingKey = std::tuple<int, int, uint64_t>;

  PublicationEngine(Table microdata, std::vector<Taxonomy> taxonomies,
                    EngineOptions options);

  /// Monotonic now on the engine clock (EngineOptions::now_nanos, else
  /// std::chrono::steady_clock).
  uint64_t NowNanos() const;

  Table microdata_;
  std::vector<Taxonomy> taxonomies_;
  /// Made by Create over the two members above, before it returns.
  std::optional<ValidatedDataset> dataset_;
  EngineOptions options_;
  PoolLease lease_;
  /// Deadline of the request currently inside Publish (0 = none). Plain
  /// member, not atomic: Publish is single-threaded by contract, and the
  /// hooks read it from the same thread.
  uint64_t current_deadline_nanos_ = 0;
  LruCache<RecodingKey, GlobalRecoding> recoding_cache_;
  std::unique_ptr<Hooks> hooks_;
};

}  // namespace pgpub::engine
