#include "attack/scenario.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/string_util.h"

namespace pgpub {

namespace {

/// Stream index for the runner-built external database — far above any
/// plausible trial index, so ℰ construction never shares a stream with a
/// trial.
constexpr uint64_t kEdbStream = 0x0EDB'0000'0000'0000ULL;

}  // namespace

Status BreachHarnessOptions::Validate() const {
  if (!(std::isfinite(rho1) && rho1 > 0.0 && rho1 < 1.0)) {
    return Status::InvalidArgument(
        StrFormat("rho1 must be in (0,1), got %g", rho1));
  }
  if (!(std::isfinite(corruption_rate) && corruption_rate >= 0.0 &&
        corruption_rate <= 1.0)) {
    return Status::InvalidArgument(StrFormat(
        "corruption rate must be in [0,1], got %g", corruption_rate));
  }
  if (!(std::isfinite(lambda) && lambda > 0.0 && lambda <= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("lambda must be in (0,1], got %g", lambda));
  }
  return Status::OK();
}

Result<BreachStats> BreachScenario::Run(const Publisher& publisher,
                                        const AdversaryModel& adversary,
                                        const ScenarioDataset& dataset,
                                        const ScenarioOptions& options) {
  RETURN_IF_ERROR(options.harness.Validate());
  Result<Release> release = publisher.Publish(dataset, options, nullptr);
  if (!release.ok()) {
    return release.status().WithContext(
        StrFormat("publisher '%s' failed on dataset '%s'",
                  std::string(publisher.name()).c_str(),
                  dataset.name.c_str()));
  }
  return RunOnRelease(*release, adversary, dataset, options);
}

Result<BreachStats> BreachScenario::RunOnRelease(
    const Release& release, const AdversaryModel& adversary,
    const ScenarioDataset& dataset, const ScenarioOptions& options) {
  RETURN_IF_ERROR(options.harness.Validate());
  if (dataset.microdata == nullptr) {
    return Status::InvalidArgument("scenario dataset has no microdata");
  }
  if (release.pg.has_value() == release.gen.has_value()) {
    return Status::InvalidArgument(
        "release must hold exactly one of a PG table or a generalization");
  }

  BreachStats stats;
  stats.publisher = release.label;
  stats.adversary = std::string(adversary.name());
  stats.dataset = dataset.name;
  stats.guarantee = release.bounds.guarantee;
  stats.h_top = release.bounds.h_top;
  stats.delta_bound = release.bounds.delta_bound;
  stats.rho2_bound = release.bounds.rho2_bound;

  AttackContext context;
  context.release = &release;
  context.microdata = dataset.microdata;
  context.options = &options.harness;

  // Release-shape plumbing. Owned state must outlive the trial fan-out.
  std::optional<ExternalDatabase> owned_edb;
  std::optional<LinkingAttack> linker;
  std::vector<size_t> members;
  if (release.IsPg()) {
    context.sensitive_attr = release.pg->sensitive_attr();
    context.us =
        static_cast<int32_t>(release.pg->domain(context.sensitive_attr).size());
    const ExternalDatabase* edb = dataset.edb;
    if (edb == nullptr) {
      Rng edb_rng = Rng::ForStream(options.harness.seed, kEdbStream);
      owned_edb = ExternalDatabase::FromMicrodata(
          *dataset.microdata, dataset.microdata->num_rows() / 20, edb_rng);
      edb = &*owned_edb;
    }
    context.edb = edb;
    ASSIGN_OR_RETURN(LinkingAttack attacker,
                     LinkingAttack::Create(&*release.pg, edb));
    linker.emplace(std::move(attacker));
    context.linker = &*linker;
    members.reserve(edb->size());
    for (size_t i = 0; i < edb->size(); ++i) {
      if (!edb->individual(i).extraneous()) members.push_back(i);
    }
    if (members.empty()) {
      return Status::FailedPrecondition(
          "external database contains no microdata members to attack");
    }
    context.members = &members;
  } else {
    if (dataset.microdata->num_rows() == 0) {
      return Status::InvalidArgument("microdata table is empty");
    }
    if (dataset.sensitive_attr < 0 ||
        dataset.sensitive_attr >= dataset.microdata->num_attributes()) {
      return Status::InvalidArgument(
          StrFormat("sensitive attribute %d out of range",
                    dataset.sensitive_attr));
    }
    context.sensitive_attr = dataset.sensitive_attr;
    context.us = static_cast<int32_t>(
        dataset.microdata->domain(context.sensitive_attr).size());
    if (release.gen->groups.row_to_group.size() !=
        dataset.microdata->num_rows()) {
      return Status::InvalidArgument(
          "generalization grouping does not cover the microdata");
    }
    context.groups = &release.gen->groups;
    context.edb = dataset.edb;
  }

  // Trial v draws everything — victim choice, prior, corruption coin
  // flips — from its own counter-based stream, so its outcome is a pure
  // function of (harness.seed, v). The fan-out below may therefore run
  // trials in any order on any thread; the serial fold afterwards
  // reproduces the exact accumulation order (and float sums) of a serial
  // run.
  std::vector<TrialOutcome> outcomes(options.harness.num_victims);
  auto run_trial = [&](size_t v) -> Status {
    Rng rng = Rng::ForStream(options.harness.seed, v);
    ASSIGN_OR_RETURN(outcomes[v], adversary.RunTrial(context, v, rng));
    return Status::OK();
  };
  if (ThreadPool::InParallelRegion()) {
    // Already inside a ParallelFor chunk (a matrix driver fanning out over
    // cells): nesting is rejected by contract, and the serial loop is
    // outcome-identical by the stream-per-trial + ordered-fold design.
    for (size_t v = 0; v < outcomes.size(); ++v) {
      RETURN_IF_ERROR(run_trial(v));
    }
  } else {
    RETURN_IF_ERROR(ParallelFor(
        options.harness.pool, IndexRange(0, outcomes.size()), /*grain=*/1,
        [&](size_t begin, size_t end) -> Status {
          for (size_t v = begin; v < end; ++v) RETURN_IF_ERROR(run_trial(v));
          return Status::OK();
        }));
  }

  // Serial trial-order fold — the accumulation a serial loop would have
  // performed. Unbounded claims (infinite bounds) never count as breached.
  double growth_sum = 0.0;
  for (const TrialOutcome& out : outcomes) {
    ++stats.attacks;
    stats.max_h = std::max(stats.max_h, out.h);
    growth_sum += out.growth;
    stats.max_growth = std::max(stats.max_growth, out.growth);
    bool breached = false;
    if (out.growth > stats.delta_bound + 1e-9) {
      ++stats.delta_breaches;
      breached = true;
    }
    stats.max_posterior_rho1 =
        std::max(stats.max_posterior_rho1, out.posterior_rho1);
    if (out.posterior_rho1 > stats.rho2_bound + 1e-9) {
      ++stats.rho_breaches;
      breached = true;
    }
    if (breached) ++stats.breached_attacks;
    if (out.point_mass) ++stats.point_mass_disclosures;
  }
  stats.mean_growth = stats.attacks == 0
                          ? 0.0
                          : growth_sum / static_cast<double>(stats.attacks);
  return stats;
}

}  // namespace pgpub
