#include "attack/publishers.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "core/guarantees.h"
#include "core/robust_publisher.h"
#include "core/validate.h"
#include "diversity/beta_likeness.h"
#include "generalize/tds.h"

namespace pgpub {

GuaranteeBounds PgTheoremBounds(const PublishedTable& published,
                                const BreachHarnessOptions& harness) {
  const int32_t us =
      static_cast<int32_t>(published.domain(published.sensitive_attr()).size());
  PgParams params;
  params.p = published.retention_p();
  params.k = published.k();
  params.lambda = std::max(harness.lambda, 1.0 / us);
  params.sensitive_domain_size = us;
  GuaranteeBounds bounds;
  bounds.h_top = HTop(params);
  bounds.delta_bound = MinDelta(params);
  bounds.rho2_bound = MinRho2(params, harness.rho1);
  bounds.guarantee =
      StrFormat("Theorems 2-3 @ p=%g k=%d lambda=%g (any lambda-bounded prior)",
                params.p, params.k, params.lambda);
  return bounds;
}

PgScenarioPublisher::PgScenarioPublisher() : config_() {}

PgScenarioPublisher::PgScenarioPublisher(Config config)
    : config_(std::move(config)) {}

PgScenarioPublisher::Config PgScenarioPublisher::Pessimistic(int k) {
  Config config;
  config.k = k;
  config.p = 0.0;
  config.label = "pessimistic";
  return config;
}

Result<Release> PgScenarioPublisher::Publish(const ScenarioDataset& dataset,
                                             const ScenarioOptions& options,
                                             PublishHooks* hooks) const {
  if (dataset.microdata == nullptr) {
    return Status::InvalidArgument("scenario dataset has no microdata");
  }
  PgOptions pg;
  pg.k = config_.k;
  pg.p = config_.p;
  pg.target = config_.target;
  pg.seed = options.publish_seed;
  // The transparent adversary reads the provenance side channel, so every
  // scenario release carries it (evaluation-only; never serialized).
  pg.keep_provenance = true;
  pg.num_threads = options.publish_threads;

  ASSIGN_OR_RETURN(ValidatedDataset validated,
                   ValidateDataset(*dataset.microdata, dataset.taxonomies));
  Result<PublishedTable> published =
      config_.robust
          ? RobustPublisher(pg).Publish(validated, /*report=*/nullptr, hooks)
          : PgPublisher(pg).Publish(validated, hooks);
  RETURN_IF_ERROR(published.status());

  Release release;
  release.label = config_.label;
  release.bounds = PgTheoremBounds(*published, options.harness);
  release.pg = std::move(*published);
  return release;
}

Result<const GroupConstraint*> GeneralizationScenarioPublisher::MakeConstraint(
    const ScenarioDataset& dataset,
    std::unique_ptr<GroupConstraint>* holder) const {
  (void)dataset;
  (void)holder;
  return static_cast<const GroupConstraint*>(nullptr);
}

GuaranteeBounds GeneralizationScenarioPublisher::DeclaredBounds(
    const ScenarioDataset& dataset, const ScenarioOptions& options) const {
  (void)dataset;
  (void)options;
  GuaranteeBounds bounds;
  bounds.guarantee = "none (k-anonymity bounds re-identification only)";
  return bounds;
}

Result<Release> GeneralizationScenarioPublisher::Publish(
    const ScenarioDataset& dataset, const ScenarioOptions& options,
    PublishHooks* hooks) const {
  (void)hooks;  // The TDS path has no cache/lease surface to share yet.
  if (dataset.microdata == nullptr) {
    return Status::InvalidArgument("scenario dataset has no microdata");
  }
  const Table& microdata = *dataset.microdata;
  if (dataset.sensitive_attr < 0 ||
      dataset.sensitive_attr >= microdata.num_attributes()) {
    return Status::InvalidArgument(StrFormat(
        "sensitive attribute %d out of range", dataset.sensitive_attr));
  }

  std::unique_ptr<GroupConstraint> holder;
  ASSIGN_OR_RETURN(const GroupConstraint* constraint,
                   MakeConstraint(dataset, &holder));

  TdsOptions tds_options;
  tds_options.k = k_;
  tds_options.constraint = constraint;
  tds_options.constraint_attr =
      constraint != nullptr ? dataset.sensitive_attr : -1;
  // Publishes happen before (never inside) the trial fan-out, but a matrix
  // driver may still call Publish from within its own parallel region,
  // where nested pools are rejected by contract.
  tds_options.pool =
      ThreadPool::InParallelRegion() ? nullptr : options.harness.pool;

  const int us =
      static_cast<int>(microdata.domain(dataset.sensitive_attr).size());
  TopDownSpecializer tds(microdata, microdata.schema().QiIndices(),
                         dataset.taxonomies,
                         microdata.column(dataset.sensitive_attr), us,
                         tds_options);
  ASSIGN_OR_RETURN(GlobalRecoding recoding, tds.Run());

  Release release;
  release.label = label_;
  Release::Generalization gen;
  gen.groups = ComputeQiGroups(microdata, recoding);
  gen.constraint = constraint != nullptr ? constraint->name() : "k-anonymity";
  release.gen = std::move(gen);
  release.bounds = DeclaredBounds(dataset, options);
  return release;
}

CLDiversityScenarioPublisher::CLDiversityScenarioPublisher(double c, int l,
                                                           int k)
    : GeneralizationScenarioPublisher(k, "cl-diversity"),
      diversity_(c, l) {}

Result<const GroupConstraint*> CLDiversityScenarioPublisher::MakeConstraint(
    const ScenarioDataset& dataset,
    std::unique_ptr<GroupConstraint>* holder) const {
  (void)dataset;
  (void)holder;
  return static_cast<const GroupConstraint*>(&diversity_);
}

GuaranteeBounds CLDiversityScenarioPublisher::DeclaredBounds(
    const ScenarioDataset& dataset, const ScenarioOptions& options) const {
  (void)options;
  const int us =
      static_cast<int>(dataset.microdata->domain(dataset.sensitive_attr).size());
  GuaranteeBounds bounds;
  // Inequality 3's ceiling, and the growth it implies over the principle's
  // own assumed prior (Equation 2). Both are claims about *exact
  // reconstruction under that prior* — the scenario holds them against
  // λ-skewed priors plus corruption, which is exactly the gap Lemmas 1-2
  // exploit.
  bounds.rho2_bound = diversity_.PosteriorCeiling();
  bounds.delta_bound = std::max(
      0.0, diversity_.PosteriorCeiling() - diversity_.AssumedPrior(us));
  bounds.guarantee =
      StrFormat("%s: posterior <= c/(c+1) assuming prior 1/(|U^s|-l+2)",
                diversity_.name().c_str());
  return bounds;
}

BetaLikenessScenarioPublisher::BetaLikenessScenarioPublisher(double beta,
                                                             int k)
    : GeneralizationScenarioPublisher(k, "beta-likeness"), beta_(beta) {}

Result<const GroupConstraint*> BetaLikenessScenarioPublisher::MakeConstraint(
    const ScenarioDataset& dataset,
    std::unique_ptr<GroupConstraint>* holder) const {
  ASSIGN_OR_RETURN(BetaLikeness likeness,
                   BetaLikeness::FromTable(*dataset.microdata,
                                           dataset.sensitive_attr, beta_));
  *holder = std::make_unique<BetaLikeness>(std::move(likeness));
  return static_cast<const GroupConstraint*>(holder->get());
}

GuaranteeBounds BetaLikenessScenarioPublisher::DeclaredBounds(
    const ScenarioDataset& dataset, const ScenarioOptions& options) const {
  (void)dataset;
  GuaranteeBounds bounds;
  // β-likeness caps each group frequency at (1+β) times the global one, so
  // against an adversary whose prior IS the public global distribution the
  // per-value growth is at most β·f(x) <= β and the posterior on a prior-ρ₁
  // predicate at most (1+β)ρ₁. Stated against that assumed prior; the
  // harness attacks with λ-skewed priors and corruption instead.
  bounds.delta_bound = std::min(1.0, beta_);
  bounds.rho2_bound = std::min(1.0, (1.0 + beta_) * options.harness.rho1);
  bounds.guarantee = StrFormat(
      "%g-likeness: growth <= beta, posterior <= (1+beta)*rho1, assuming "
      "the public global prior",
      beta_);
  return bounds;
}

Result<Release> FixedPgRelease::Publish(const ScenarioDataset& dataset,
                                        const ScenarioOptions& options,
                                        PublishHooks* hooks) const {
  (void)dataset;
  (void)hooks;
  if (published_ == nullptr) {
    return Status::InvalidArgument("fixed PG release adapter holds no table");
  }
  Release release;
  release.label = label_;
  release.bounds = PgTheoremBounds(*published_, options.harness);
  release.pg = *published_;
  return release;
}

Result<Release> FixedGeneralizationRelease::Publish(
    const ScenarioDataset& dataset, const ScenarioOptions& options,
    PublishHooks* hooks) const {
  (void)dataset;
  (void)options;
  (void)hooks;
  if (groups_ == nullptr) {
    return Status::InvalidArgument(
        "fixed generalization adapter holds no grouping");
  }
  Release release;
  release.label = label_;
  Release::Generalization gen;
  gen.groups = *groups_;
  release.gen = std::move(gen);
  return release;
}

}  // namespace pgpub
