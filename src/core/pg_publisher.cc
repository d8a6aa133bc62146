#include "core/pg_publisher.h"

#include <algorithm>
#include <cmath>

#include <optional>
#include <string_view>

#include "common/failpoint.h"
#include "common/parallel/thread_pool.h"
#include "core/publish_hooks.h"
#include "core/validate.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "generalize/incognito.h"
#include "generalize/metrics.h"
#include "generalize/tds.h"
#include "perturb/randomized_response.h"
#include "sample/stratified.h"

namespace pgpub {

Status PgOptions::ValidateCardinality() const {
  if (k < 0) {
    return Status::InvalidArgument("k must be >= 0, got " +
                                   std::to_string(k));
  }
  if (k == 0 && !(std::isfinite(s) && s > 0.0 && s <= 1.0)) {
    return Status::InvalidArgument(
        "sampling parameter s must be in (0,1] when k is not given");
  }
  return Status::OK();
}

Status PgOptions::ValidateRetentionSpec() const {
  if (p >= 0.0) {
    if (!(std::isfinite(p) && p <= 1.0)) {
      return Status::InvalidArgument("retention p must be in [0,1]");
    }
    return Status::OK();
  }
  // p is to be solved from the declared target.
  if (target.kind == PrivacyTarget::Kind::kNone) {
    return Status::InvalidArgument(
        "no retention probability given and no privacy target to solve "
        "it from");
  }
  if (!(std::isfinite(target.lambda) && target.lambda > 0.0 &&
        target.lambda <= 1.0)) {
    return Status::InvalidArgument("adversary skew lambda must be in (0,1]");
  }
  if (target.kind == PrivacyTarget::Kind::kRho &&
      !(std::isfinite(target.rho1) && std::isfinite(target.rho2) &&
        target.rho1 > 0.0 && target.rho1 < target.rho2 &&
        target.rho2 <= 1.0)) {
    return Status::InvalidArgument(
        "need 0 < rho1 < rho2 <= 1 for a rho1-to-rho2 guarantee");
  }
  if (target.kind == PrivacyTarget::Kind::kDelta &&
      !(std::isfinite(target.delta) && target.delta > 0.0 &&
        target.delta <= 1.0)) {
    return Status::InvalidArgument(
        "need 0 < delta <= 1 for a Delta-growth guarantee");
  }
  return Status::OK();
}

Status PgOptions::ValidateClassCategories(int sensitive_domain_size) const {
  const auto& starts = class_category_starts;
  if (starts.empty()) return Status::OK();
  if (starts[0] != 0) {
    return Status::InvalidArgument("class_category_starts must begin at 0");
  }
  for (size_t i = 1; i < starts.size(); ++i) {
    if (starts[i] <= starts[i - 1] ||
        (sensitive_domain_size >= 0 && starts[i] >= sensitive_domain_size)) {
      return Status::InvalidArgument(
          "class_category_starts must be ascending and within |U^s|");
    }
  }
  return Status::OK();
}

Status PgOptions::Validate() const {
  if (num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0, got " +
                                   std::to_string(num_threads));
  }
  RETURN_IF_ERROR(ValidateCardinality());
  RETURN_IF_ERROR(ValidateRetentionSpec());
  return ValidateClassCategories(/*sensitive_domain_size=*/-1);
}

Result<int> PgPublisher::EffectiveK(const PgOptions& options) {
  RETURN_IF_ERROR(options.ValidateCardinality());
  if (options.k > 0) return options.k;
  return static_cast<int>(std::ceil(1.0 / options.s));
}

Result<double> PgPublisher::EffectiveRetention(const PgOptions& options,
                                               int k,
                                               int sensitive_domain_size) {
  if (k < 1) {
    return Status::InvalidArgument("effective k must be >= 1");
  }
  if (sensitive_domain_size < 2) {
    return Status::InvalidArgument(
        "sensitive domain must hold at least 2 values");
  }
  RETURN_IF_ERROR(options.ValidateRetentionSpec());
  if (options.p >= 0.0) return options.p;
  switch (options.target.kind) {
    case PrivacyTarget::Kind::kNone:
      break;  // Unreachable: ValidateRetentionSpec rejected kNone above.
    case PrivacyTarget::Kind::kRho:
      return MaxRetentionForRho(k, options.target.lambda,
                                sensitive_domain_size, options.target.rho1,
                                options.target.rho2);
    case PrivacyTarget::Kind::kDelta:
      return MaxRetentionForDelta(k, options.target.lambda,
                                  sensitive_domain_size,
                                  options.target.delta);
  }
  return Status::Internal("unreachable");
}

Result<PublishedTable> PgPublisher::Publish(
    const Table& microdata,
    const std::vector<const Taxonomy*>& taxonomies) const {
  ASSIGN_OR_RETURN(ValidatedDataset dataset,
                   ValidateDataset(microdata, taxonomies));
  return Publish(dataset);
}

Result<PublishedTable> PgPublisher::Publish(const ValidatedDataset& dataset,
                                            PublishHooks* hooks) const {
  // Past both screens, the phases below treat violations as internal bugs.
  RETURN_IF_ERROR(ValidateRequest(dataset, options_));

  const Table& microdata = dataset.microdata;
  const int sens = dataset.sensitive;
  const int32_t us = dataset.sensitive_domain_size;
  ASSIGN_OR_RETURN(int k, EffectiveK(options_));

  ASSIGN_OR_RETURN(double p, EffectiveRetention(options_, k, us));

  Rng master(options_.seed);
  // Fork order is part of the wire format of a seed: perturbation first,
  // sampling second, exactly as the pre-parallel publisher did. The
  // perturbation fork is consumed as a stream *base* seed (per-tuple
  // streams derive from it), not as a sequential generator.
  const uint64_t perturb_seed = master.Fork();
  Rng sample_rng(master.Fork());

  // Worker pool for the parallel phases. Serial configurations get a null
  // pool, which makes every ParallelFor below run inline on this thread —
  // the legacy code path, byte-for-byte. A serving layer shares one lease
  // across requests (no per-request thread churn); thread count never
  // affects the published bytes, so the two paths are interchangeable.
  const PoolLease* pool_lease =
      hooks != nullptr ? hooks->pool_lease() : nullptr;
  std::optional<PoolLease> local_lease;
  if (pool_lease == nullptr) {
    local_lease.emplace(options_.num_threads);
    pool_lease = &*local_lease;
  }
  ThreadPool* const pool = pool_lease->get();

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.GetCounter("publish.runs")->Add();
  metrics.GetCounter("publish.rows_in")->Add(microdata.num_rows());
  PGPUB_LOG_INFO("publish.start")
      .Field("rows", microdata.num_rows())
      .Field("k", k)
      .Field("p", p)
      .Field("generalizer",
             options_.generalizer == PgOptions::Generalizer::kTds
                 ? "tds"
                 : "incognito")
      .Field("seed", options_.seed)
      .Field("threads", pool_lease->num_threads());

  // ---- Phase 1: perturbation (P1/P2). QI untouched; sensitive retained
  // with probability p, otherwise uniformly regenerated. Tuple i is
  // perturbed by stream i of perturb_seed, so the column is independent
  // of chunking and thread count.
  // Tenant attribution for phase spans: empty (standalone pipeline) emits
  // no attribute at all, keeping serverless traces identical to PR 3.
  const std::string_view tenant =
      hooks != nullptr ? hooks->tenant_label() : std::string_view{};

  std::vector<int32_t> perturbed;
  {
    obs::ScopedSpan span("publish.perturb");
    if (!tenant.empty()) span.Attr("tenant", tenant);
    if (hooks != nullptr) RETURN_IF_ERROR(hooks->CheckDeadline("perturb"));
    PGPUB_FAILPOINT(failpoints::kPublishPerturb);
    const UniformPerturbation channel(p, us);
    ASSIGN_OR_RETURN(perturbed, channel.PerturbColumnStreams(
                                    microdata.column(sens), perturb_seed,
                                    pool));
  }

  // ---- Phase 2: k-anonymous global-recoding generalization (G1-G3),
  // guided by the *perturbed* sensitive values (the publisher must not let
  // the generalization leak un-perturbed information).
  std::vector<int32_t> class_labels;
  int num_classes;
  if (options_.class_category_starts.empty()) {
    class_labels = perturbed;
    num_classes = us;
  } else {
    const auto& starts = options_.class_category_starts;
    num_classes = static_cast<int>(starts.size());
    class_labels.reserve(perturbed.size());
    for (int32_t code : perturbed) {
      int cls = static_cast<int>(
          std::upper_bound(starts.begin(), starts.end(), code) -
          starts.begin() - 1);
      class_labels.push_back(cls);
    }
  }

  GlobalRecoding recoding;
  QiGroups groups;
  {
    obs::ScopedSpan span("publish.generalize");
    if (!tenant.empty()) span.Attr("tenant", tenant);
    if (hooks != nullptr) {
      RETURN_IF_ERROR(hooks->CheckDeadline("generalize"));
    }
    const bool is_tds = options_.generalizer == PgOptions::Generalizer::kTds;
    RecodingQuery recoding_query;
    recoding_query.generalizer = options_.generalizer;
    recoding_query.k = k;
    recoding_query.num_classes = num_classes;
    // Incognito never reads the class labels, so they stay out of its
    // cache identity — requests differing only in perturbation share one
    // lattice search.
    if (is_tds) recoding_query.class_labels = &class_labels;

    std::optional<GlobalRecoding> cached;
    if (hooks != nullptr) cached = hooks->LookupRecoding(recoding_query);
    span.Attr("cache_hit", cached.has_value());
    if (cached.has_value()) {
      // The k-anonymity re-check below is what lets a cache hit be
      // trusted; if the re-check machinery itself faults, the hit must
      // fail closed rather than ship unverified.
      PGPUB_FAILPOINT(failpoints::kEngineCacheRecheck);
      recoding = *std::move(cached);
    } else if (is_tds) {
      TdsOptions tds_options;
      tds_options.k = k;
      tds_options.pool = pool;
      // With hooks, `class_labels` must outlive Run() unmoved: StoreRecoding
      // re-reads it through recoding_query to compute the cache key.
      std::vector<int32_t> tds_labels =
          hooks != nullptr ? class_labels : std::move(class_labels);
      TopDownSpecializer tds(microdata, dataset.qi, dataset.taxonomies,
                             std::move(tds_labels), num_classes, tds_options);
      ASSIGN_OR_RETURN(recoding, tds.Run());
      if (hooks != nullptr) hooks->StoreRecoding(recoding_query, recoding);
    } else {
      IncognitoOptions inc_options;
      inc_options.k = k;
      inc_options.pool = pool;
      ASSIGN_OR_RETURN(recoding, IncognitoSearch(microdata, dataset.qi,
                                                 dataset.taxonomies,
                                                 inc_options));
      if (hooks != nullptr) hooks->StoreRecoding(recoding_query, recoding);
    }

    // A QI signature space beyond u64 (e.g. eight 1000-value attributes
    // at full depth) cannot be grouped; reject it with a typed Status
    // before grouping, for searched and cache-hit recodings alike.
    if (recoding.NumCells() == UINT64_MAX) {
      return Status::InvalidArgument(
          "recoding's QI signature space overflows u64; generalize "
          "further or use fewer QI attributes");
    }
    // Run on cache hits too: a poisoned or collided cache entry must fail
    // closed here, never ship a table violating G2.
    groups = ComputeQiGroups(microdata, recoding);
    if (!IsKAnonymous(groups, k)) {
      return Status::Internal(
          "generalizer returned a non-k-anonymous recoding");
    }
  }
  metrics.GetCounter("publish.groups")->Add(groups.num_groups());

  // ---- Phase 3: stratified sampling (S1-S4).
  std::vector<StratumSample> samples;
  {
    obs::ScopedSpan span("publish.sample");
    if (!tenant.empty()) span.Attr("tenant", tenant);
    if (hooks != nullptr) RETURN_IF_ERROR(hooks->CheckDeadline("sample"));
    PGPUB_FAILPOINT(failpoints::kPublishSample);
    samples = StratifiedSample(groups, sample_rng);
  }
  metrics.GetCounter("publish.rows_out")->Add(samples.size());

  PGPUB_FAILPOINT(failpoints::kPublishAssemble);
  std::vector<std::vector<int32_t>> qi_gen;
  std::vector<int32_t> sensitive;
  std::vector<uint32_t> group_sizes;
  qi_gen.reserve(samples.size());
  sensitive.reserve(samples.size());
  group_sizes.reserve(samples.size());
  for (const StratumSample& s : samples) {
    qi_gen.push_back(recoding.GenVectorOfRow(microdata, s.row));
    sensitive.push_back(perturbed[s.row]);
    group_sizes.push_back(s.group_size);
  }

  PublishedTable published(microdata.schema(), microdata.domains(), recoding,
                           sens, p, k, std::move(qi_gen),
                           std::move(sensitive), std::move(group_sizes));

  if (options_.keep_provenance) {
    PublishedTable::Provenance prov;
    prov.source_row.reserve(samples.size());
    prov.group_members.reserve(samples.size());
    for (const StratumSample& s : samples) {
      prov.source_row.push_back(s.row);
      prov.group_members.push_back(groups.group_rows[s.group]);
    }
    published.set_provenance(std::move(prov));
  }
  PGPUB_LOG_INFO("publish.done")
      .Field("rows_out", samples.size())
      .Field("groups", groups.num_groups());
  return published;
}

}  // namespace pgpub
