#include "engine/publication_engine.h"

#include <chrono>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "common/sync/lock_ranks.h"
#include "common/sync/mutex.h"
#include "core/pg_publisher.h"
#include "core/publish_hooks.h"
#include "core/validate.h"
#include "engine/fingerprint.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pgpub::engine {

namespace {

uint64_t DoubleBits(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  __builtin_memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

Status CachedTaxonomyAudit(const Taxonomy& taxonomy) {
  // Leaked singletons: audited taxonomies outlive any engine, and the memo
  // must never run static destructors concurrently with late audits.
  static Mutex* mu =
      new Mutex("engine.taxonomy_audit", lock_rank::kEngineCache);
  static std::map<uint64_t, Status>* memo = new std::map<uint64_t, Status>();
  const uint64_t fingerprint = FingerprintTaxonomy(taxonomy);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  {
    MutexLock lock(mu);
    auto it = memo->find(fingerprint);
    if (it != memo->end()) {
      metrics.GetCounter("engine.taxonomy_audit.hits")->Add();
      return it->second;
    }
  }
  Status audit = taxonomy.Audit();
  MutexLock lock(mu);
  metrics.GetCounter("engine.taxonomy_audit.misses")->Add();
  memo->emplace(fingerprint, audit);
  return audit;
}

Status EngineOptions::Validate() const {
  if (num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0, got " +
                                   std::to_string(num_threads));
  }
  if (recoding_cache_capacity == 0) {
    return Status::InvalidArgument("recoding_cache_capacity must be >= 1");
  }
  if (retention_cache_capacity == 0) {
    return Status::InvalidArgument("retention_cache_capacity must be >= 1");
  }
  return robust.Validate();
}

/// The PublishHooks implementation the engine threads through
/// RobustPublisher into PgPublisher: marks inputs prevalidated, shares the
/// engine's pool lease, and adapts cache queries to fingerprint keys.
class PublicationEngine::Hooks final : public PublishHooks {
 public:
  explicit Hooks(PublicationEngine* engine) : engine_(engine) {}

  bool inputs_prevalidated() const override { return true; }
  const PoolLease* pool_lease() const override { return &engine_->lease_; }
  std::string_view tenant_label() const override {
    return engine_->options_.tenant_label;
  }

  Status CheckDeadline(const char* about_to_run) override {
    const uint64_t deadline = engine_->current_deadline_nanos_;
    if (deadline == 0) return Status::OK();
    const uint64_t now = engine_->NowNanos();
    if (now < deadline) return Status::OK();
    obs::MetricsRegistry::Global()
        .GetCounter("engine.deadline_exceeded")
        ->Add();
    return Status::DeadlineExceeded(
        std::string("request deadline passed before ") + about_to_run +
        " (" + std::to_string(now - deadline) + " ns over)");
  }

  std::optional<double> LookupRetention(const RetentionQuery& query) override {
    return engine_->retention_cache_.Lookup(KeyOf(query));
  }
  void StoreRetention(const RetentionQuery& query, double p) override {
    engine_->retention_cache_.Insert(KeyOf(query), p);
  }

  std::optional<GlobalRecoding> LookupRecoding(
      const RecodingQuery& query) override {
    return engine_->recoding_cache_.Lookup(KeyOf(query));
  }
  void StoreRecoding(const RecodingQuery& query,
                     const GlobalRecoding& recoding) override {
    engine_->recoding_cache_.Insert(KeyOf(query), recoding);
  }

 private:
  static RetentionKey KeyOf(const RetentionQuery& query) {
    return RetentionKey{static_cast<int>(query.target.kind),
                        DoubleBits(query.target.rho1),
                        DoubleBits(query.target.rho2),
                        DoubleBits(query.target.delta),
                        DoubleBits(query.target.lambda),
                        query.k,
                        query.sensitive_domain_size};
  }

  // Cache-key audit: RecodingKey is everything the recoding bytes depend
  // on — and nothing more: the generalizer, k, and (TDS only) the class
  // labels. Each generalizer has exactly one Phase-2 engine, and the
  // thread count never changes a recoding (tests/phase2_equivalence_test.cc),
  // so no execution knob belongs in the key. Defense in depth for a buggy
  // entry stays fail-closed: every hit is re-checked for k-anonymity in
  // pg_publisher.cc before it ships (tests/engine_test.cc,
  // CachePoisoningTest).
  static RecodingKey KeyOf(const RecodingQuery& query) {
    uint64_t labels_fingerprint = 0;
    if (query.class_labels != nullptr) {
      Fingerprinter fp;
      fp.Mix(static_cast<uint64_t>(query.num_classes));
      fp.MixI32Span(query.class_labels->data(), query.class_labels->size());
      labels_fingerprint = fp.digest();
    }
    return RecodingKey{static_cast<int>(query.generalizer), query.k,
                       labels_fingerprint};
  }

  PublicationEngine* engine_;
};

PublicationEngine::PublicationEngine(Table microdata,
                                     std::vector<Taxonomy> taxonomies,
                                     EngineOptions options,
                                     int sensitive_index)
    : microdata_(std::move(microdata)),
      taxonomies_(std::move(taxonomies)),
      options_(options),
      sensitive_index_(sensitive_index),
      sensitive_domain_size_(microdata_.domain(sensitive_index).size()),
      lease_(options.num_threads),
      recoding_cache_("recoding", options.recoding_cache_capacity),
      retention_cache_("retention", options.retention_cache_capacity),
      hooks_(std::make_unique<Hooks>(this)) {
  taxonomy_ptrs_.reserve(taxonomies_.size());
  for (const Taxonomy& t : taxonomies_) taxonomy_ptrs_.push_back(&t);
  table_fingerprint_ = FingerprintTable(microdata_);
  taxonomy_fingerprint_ = FingerprintTaxonomies(taxonomy_ptrs_);
}

PublicationEngine::~PublicationEngine() = default;

Result<std::unique_ptr<PublicationEngine>> PublicationEngine::Create(
    Table microdata, std::vector<Taxonomy> taxonomies,
    EngineOptions options) {
  RETURN_IF_ERROR(options.Validate());
  const std::vector<int> qi = microdata.schema().QiIndices();
  if (qi.empty()) {
    return Status::InvalidArgument("schema declares no QI attributes");
  }
  if (taxonomies.size() != qi.size()) {
    return Status::InvalidArgument(
        "need one taxonomy per QI attribute, got " +
        std::to_string(taxonomies.size()) + " for " +
        std::to_string(qi.size()));
  }
  ASSIGN_OR_RETURN(int sens, microdata.schema().SensitiveIndex());
  const int32_t us = microdata.domain(sens).size();
  if (us < 2) {
    return Status::InvalidArgument(
        "sensitive domain must hold at least 2 values, got " +
        std::to_string(us));
  }
  for (size_t i = 0; i < qi.size(); ++i) {
    RETURN_IF_ERROR(CachedTaxonomyAudit(taxonomies[i])
                        .WithContext("taxonomy of QI attribute " +
                                     microdata.schema()
                                         .attribute(qi[i])
                                         .name));
    if (taxonomies[i].domain_size() != microdata.domain(qi[i]).size()) {
      return Status::InvalidArgument(
          "taxonomy covers " + std::to_string(taxonomies[i].domain_size()) +
          " codes but the attribute domain holds " +
          std::to_string(microdata.domain(qi[i]).size()));
    }
  }
  // The O(rows) half of ValidatePublishInputs, paid exactly once for the
  // engine's lifetime: every request then runs with
  // inputs_prevalidated() == true.
  const std::vector<int32_t>& sens_col = microdata.column(sens);
  for (size_t r = 0; r < sens_col.size(); ++r) {
    if (sens_col[r] < 0 || sens_col[r] >= us) {
      return Status::InvalidArgument(
          "sensitive code out of range at row " + std::to_string(r) + ": " +
          std::to_string(sens_col[r]));
    }
  }
  std::unique_ptr<PublicationEngine> engine(new PublicationEngine(
      std::move(microdata), std::move(taxonomies), options, sens));
  PGPUB_LOG_INFO("engine.create")
      .Field("rows", engine->microdata_.num_rows())
      .Field("qi", qi.size())
      .Field("threads", engine->lease_.num_threads())
      .Field("table_fp", engine->table_fingerprint_)
      .Field("taxonomy_fp", engine->taxonomy_fingerprint_);
  return engine;
}

Status PublicationEngine::ValidateRequest(
    const PublishRequest& request) const {
  RETURN_IF_ERROR(request.Validate());
  RETURN_IF_ERROR(
      request.options.ValidateClassCategories(sensitive_domain_size_));
  ASSIGN_OR_RETURN(int k, PgPublisher::EffectiveK(request.options));
  if (microdata_.num_rows() < static_cast<size_t>(k)) {
    return Status::FailedPrecondition(
        "microdata has fewer rows (" + std::to_string(microdata_.num_rows()) +
        ") than k (" + std::to_string(k) + ")");
  }
  return Status::OK();
}

CacheStats PublicationEngine::combined_cache_stats() const {
  const CacheStats recoding = recoding_cache_.stats();
  const CacheStats retention = retention_cache_.stats();
  CacheStats total;
  total.hits = recoding.hits + retention.hits;
  total.misses = recoding.misses + retention.misses;
  total.evictions = recoding.evictions + retention.evictions;
  return total;
}

uint64_t PublicationEngine::NowNanos() const {
  if (options_.now_nanos) return options_.now_nanos();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Result<PublishedTable> PublicationEngine::Publish(
    const PublishRequest& request, PublishReport* report) {
  obs::MetricsRegistry::Global().GetCounter("engine.requests")->Add();
  if (Status st = ValidateRequest(request); !st.ok()) {
    if (report != nullptr) {
      *report = PublishReport{};
      report->final_status = st;
    }
    return st;
  }
  current_deadline_nanos_ = request.deadline_nanos;
  obs::ScopedSpan span("engine.publish");
  if (!options_.tenant_label.empty()) {
    span.Attr("tenant", options_.tenant_label);
  }
  const CacheStats before = combined_cache_stats();
  Result<PublishedTable> result =
      RobustPublisher(request.options, options_.robust)
          .Publish(microdata_, taxonomy_ptrs_, report, hooks_.get());
  current_deadline_nanos_ = 0;
  const CacheStats after = combined_cache_stats();
  span.Attr("cache_hits", after.hits - before.hits)
      .Attr("cache_misses", after.misses - before.misses)
      .Attr("ok", result.ok());
  if (report != nullptr) {
    report->cache.enabled = true;
    report->cache.hits = after.hits - before.hits;
    report->cache.misses = after.misses - before.misses;
    report->cache.evictions = after.evictions - before.evictions;
  }
  return result;
}

}  // namespace pgpub::engine
