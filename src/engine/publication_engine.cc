#include "engine/publication_engine.h"

#include <chrono>
#include <optional>
#include <string>
#include <utility>

#include "core/publish_hooks.h"
#include "core/validate.h"
#include "engine/fingerprint.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pgpub::engine {

Status EngineOptions::Validate() const {
  if (num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0, got " +
                                   std::to_string(num_threads));
  }
  if (recoding_cache_capacity == 0) {
    return Status::InvalidArgument("recoding_cache_capacity must be >= 1");
  }
  return robust.Validate();
}

/// The PublishHooks implementation the engine threads through
/// RobustPublisher into PgPublisher: shares the engine's pool lease,
/// checks the request deadline, and adapts recoding queries to cache keys.
class PublicationEngine::Hooks final : public PublishHooks {
 public:
  explicit Hooks(PublicationEngine* engine) : engine_(engine) {}

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

  std::optional<GlobalRecoding> LookupRecoding(
      const RecodingQuery& query) override {
    return engine_->recoding_cache_.Lookup(KeyOf(query));
  }
  void StoreRecoding(const RecodingQuery& query,
                     const GlobalRecoding& recoding) override {
    engine_->recoding_cache_.Insert(KeyOf(query), recoding);
  }

 private:
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
                                     EngineOptions options)
    : microdata_(std::move(microdata)),
      taxonomies_(std::move(taxonomies)),
      options_(options),
      lease_(options.num_threads),
      recoding_cache_("recoding", options.recoding_cache_capacity),
      hooks_(std::make_unique<Hooks>(this)) {}

PublicationEngine::~PublicationEngine() = default;

Result<std::unique_ptr<PublicationEngine>> PublicationEngine::Create(
    Table microdata, std::vector<Taxonomy> taxonomies,
    EngineOptions options) {
  RETURN_IF_ERROR(options.Validate());
  std::unique_ptr<PublicationEngine> engine(new PublicationEngine(
      std::move(microdata), std::move(taxonomies), options));
  // Screened once, over the members the ValidatedDataset will refer to.
  std::vector<const Taxonomy*> taxonomy_ptrs;
  for (const Taxonomy& t : engine->taxonomies_) taxonomy_ptrs.push_back(&t);
  ASSIGN_OR_RETURN(ValidatedDataset dataset,
                   ValidateDataset(engine->microdata_, taxonomy_ptrs));
  engine->dataset_.emplace(std::move(dataset));
  PGPUB_LOG_INFO("engine.create")
      .Field("rows", engine->microdata_.num_rows())
      .Field("qi", engine->taxonomies_.size())
      .Field("threads", engine->lease_.num_threads());
  return engine;
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
  current_deadline_nanos_ = request.deadline_nanos;
  obs::ScopedSpan span("engine.publish");
  if (!options_.tenant_label.empty()) {
    span.Attr("tenant", options_.tenant_label);
  }
  const CacheStats before = recoding_cache_.stats();
  Result<PublishedTable> result =
      RobustPublisher(request.options, options_.robust)
          .Publish(*dataset_, report, hooks_.get());
  current_deadline_nanos_ = 0;
  const CacheStats after = recoding_cache_.stats();
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
