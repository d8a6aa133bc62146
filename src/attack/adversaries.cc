#include "attack/adversaries.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "perturb/randomized_response.h"

namespace pgpub {

namespace {

Result<BackgroundKnowledge> MakePrior(BreachHarnessOptions::PriorKind kind,
                                      int32_t us, int32_t true_value,
                                      double lambda, Rng& rng) {
  switch (kind) {
    case BreachHarnessOptions::PriorKind::kUniform:
      return BackgroundKnowledge::Uniform(us);
    case BreachHarnessOptions::PriorKind::kSkewTrue:
      return BackgroundKnowledge::SkewedTowards(
          us, true_value, std::max(lambda, 1.0 / us));
    case BreachHarnessOptions::PriorKind::kRandom:
      return BackgroundKnowledge::RandomSkewed(
          us, std::max(lambda, 1.0 / us), rng);
  }
  return BackgroundKnowledge::Uniform(us);
}

int PosteriorSupport(const std::vector<double>& pdf) {
  int support = 0;
  for (double mass : pdf) {
    if (mass > 1e-12) ++support;
  }
  return support;
}

Status RequirePg(const AttackContext& context) {
  if (context.release == nullptr || !context.release->IsPg() ||
      context.linker == nullptr || context.members == nullptr ||
      context.edb == nullptr) {
    return Status::Internal("attack context not wired for a PG release");
  }
  return Status::OK();
}

Status RequireGen(const AttackContext& context) {
  if (context.release == nullptr || context.release->IsPg() ||
      context.groups == nullptr) {
    return Status::Internal(
        "attack context not wired for a generalization release");
  }
  return Status::OK();
}

/// One corruption-aided linking trial against a PG release, with the
/// corruption rate and prior kind as parameters so the worst-case
/// adversary can reuse it. Its draw sequence is pinned by the seed-42
/// scenario goldens.
Result<TrialOutcome> PgLinkingTrial(const AttackContext& context, Rng& rng,
                                    double corruption_rate,
                                    BreachHarnessOptions::PriorKind kind) {
  RETURN_IF_ERROR(RequirePg(context));
  const BreachHarnessOptions& options = *context.options;
  const PublishedTable& published = *context.release->pg;
  const ExternalDatabase& edb = *context.edb;
  const Table& microdata = *context.microdata;
  const int sens = context.sensitive_attr;
  const int32_t us = context.us;
  const double lambda = std::max(options.lambda, 1.0 / us);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();

  const std::vector<size_t>& members = *context.members;
  const size_t victim = members[rng.UniformU64(members.size())];
  const Individual& victim_ind = edb.individual(victim);
  const int32_t true_value = microdata.value(victim_ind.microdata_row, sens);

  Adversary adv;
  ASSIGN_OR_RETURN(adv.victim_prior,
                   MakePrior(kind, us, true_value, lambda, rng));

  // Corrupt candidates sharing the victim's published cell (the most
  // damaging corruption targets).
  auto crucial = published.CrucialTuple(victim_ind.qi_codes);
  if (!crucial.ok()) {
    return crucial.status().WithContext(
        "microdata member has no crucial tuple");
  }
  uint64_t candidate_set = 1;  // the victim itself
  for (size_t i = 0; i < edb.size(); ++i) {
    if (i == victim) continue;
    auto other = published.CrucialTuple(edb.individual(i).qi_codes);
    if (!other.ok() || *other != *crucial) continue;
    ++candidate_set;
    metrics.GetCounter("attack.corruption_draws")->Add();
    if (!rng.Bernoulli(corruption_rate)) continue;
    const Individual& ind = edb.individual(i);
    adv.corrupted[i] = ind.extraneous()
                           ? Adversary::kExtraneousMark
                           : microdata.value(ind.microdata_row, sens);
  }
  metrics.GetHistogram("attack.candidate_set")->Observe(candidate_set);
  metrics.GetCounter("attack.corrupted")->Add(adv.corrupted.size());

  ASSIGN_OR_RETURN(AttackResult result, context.linker->Attack(victim, adv));
  metrics.GetCounter("attack.attacks")->Add();
  TrialOutcome out;
  out.h = result.h;
  ASSIGN_OR_RETURN(out.growth, result.MaxGrowth(adv.victim_prior));
  // Optimal adversary: exact knapsack over predicates with prior <=
  // rho1 (the greedy heuristic is a lower bound of this).
  ASSIGN_OR_RETURN(out.posterior_rho1,
                   result.MaxPosteriorGivenPriorBoundExact(adv.victim_prior,
                                                           options.rho1));
  out.point_mass = PosteriorSupport(result.posterior) == 1;
  return out;
}

/// One corruption trial against a conventional generalization,
/// parameterized the same way.
Result<TrialOutcome> GenTrial(const AttackContext& context, Rng& rng,
                              double corruption_rate,
                              BreachHarnessOptions::PriorKind kind) {
  RETURN_IF_ERROR(RequireGen(context));
  const BreachHarnessOptions& options = *context.options;
  const Table& microdata = *context.microdata;
  const QiGroups& groups = *context.groups;
  const int sens = context.sensitive_attr;
  const int32_t us = context.us;
  const size_t n = microdata.num_rows();
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();

  const uint32_t victim_row = static_cast<uint32_t>(rng.UniformU64(n));
  const int32_t true_value = microdata.value(victim_row, sens);
  const auto& group_rows = groups.group_rows[groups.row_to_group[victim_row]];

  ASSIGN_OR_RETURN(BackgroundKnowledge prior,
                   MakePrior(kind, us, true_value,
                             std::max(options.lambda, 1.0 / us), rng));

  metrics.GetHistogram("attack.candidate_set")->Observe(group_rows.size());
  std::vector<uint32_t> corrupted;
  for (uint32_t r : group_rows) {
    if (r == victim_row) continue;
    metrics.GetCounter("attack.corruption_draws")->Add();
    if (rng.Bernoulli(corruption_rate)) {
      corrupted.push_back(r);
    }
  }
  metrics.GetCounter("attack.corrupted")->Add(corrupted.size());
  metrics.GetCounter("attack.attacks")->Add();

  ASSIGN_OR_RETURN(
      std::vector<double> post,
      GeneralizationAttackPosterior(microdata, group_rows, sens, victim_row,
                                    corrupted, prior));

  TrialOutcome out;
  double growth = 0.0;
  for (int32_t x = 0; x < us; ++x) {
    growth += std::max(0.0, post[x] - prior.pdf[x]);
  }
  out.growth = growth;
  out.point_mass = PosteriorSupport(post) == 1;
  // Every tuple of a conventional release is published, so ownership of
  // the victim's record is certain.
  out.h = 1.0;
  AttackResult shim;
  shim.posterior = std::move(post);
  ASSIGN_OR_RETURN(out.posterior_rho1, shim.MaxPosteriorGivenPriorBoundExact(
                                           prior, options.rho1));
  return out;
}

/// The transparent adversary's PG trial: victim and prior are drawn
/// exactly like a linking trial, then the replay (provenance) resolves
/// whether the victim's tuple was sampled, leaving only the perturbation
/// channel to invert.
Result<TrialOutcome> TransparentPgTrial(const AttackContext& context,
                                        Rng& rng) {
  RETURN_IF_ERROR(RequirePg(context));
  const BreachHarnessOptions& options = *context.options;
  const PublishedTable& published = *context.release->pg;
  if (!published.provenance().has_value()) {
    return Status::FailedPrecondition(
        "transparent adversary needs the provenance side channel: publish "
        "with PgOptions::keep_provenance (the scenario publishers do)");
  }
  const ExternalDatabase& edb = *context.edb;
  const Table& microdata = *context.microdata;
  const int sens = context.sensitive_attr;
  const int32_t us = context.us;
  const double lambda = std::max(options.lambda, 1.0 / us);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();

  const std::vector<size_t>& members = *context.members;
  const size_t victim = members[rng.UniformU64(members.size())];
  const Individual& victim_ind = edb.individual(victim);
  const int32_t true_value = microdata.value(victim_ind.microdata_row, sens);

  BackgroundKnowledge prior;
  ASSIGN_OR_RETURN(prior, MakePrior(options.prior_kind, us, true_value,
                                    lambda, rng));

  auto crucial = published.CrucialTuple(victim_ind.qi_codes);
  if (!crucial.ok()) {
    return crucial.status().WithContext(
        "microdata member has no crucial tuple");
  }
  const PublishedTable::Provenance& provenance = *published.provenance();
  const uint32_t source_row = provenance.source_row[*crucial];
  const int32_t observed_y = published.sensitive(*crucial);
  metrics.GetCounter("attack.attacks")->Add();

  TrialOutcome out;
  AttackResult shim;
  if (source_row == static_cast<uint32_t>(victim_ind.microdata_row)) {
    // Replay resolved grouping and sampling: the published tuple IS the
    // victim's, so h = 1 and the posterior is the channel inversion
    // P[x|y] ∝ prior(x)·P[x→y].
    UniformPerturbation channel(published.retention_p(), us);
    std::vector<double> post(us, 0.0);
    double z = 0.0;
    for (int32_t x = 0; x < us; ++x) {
      post[x] = prior.pdf[x] * channel.TransitionProb(x, observed_y);
      z += post[x];
    }
    if (!(z > 0.0)) {
      return Status::Internal("transparent posterior has zero mass");
    }
    for (double& mass : post) mass /= z;
    out.h = 1.0;
    shim.posterior = std::move(post);
  } else {
    // Replay shows someone else's tuple was sampled for the victim's cell;
    // under the memoryless channel the release then carries no information
    // about the victim beyond the prior.
    out.h = 0.0;
    shim.posterior = prior.pdf;
  }
  out.point_mass = PosteriorSupport(shim.posterior) == 1;
  ASSIGN_OR_RETURN(out.growth, shim.MaxGrowth(prior));
  ASSIGN_OR_RETURN(out.posterior_rho1, shim.MaxPosteriorGivenPriorBoundExact(
                                           prior, options.rho1));
  return out;
}

}  // namespace

Result<TrialOutcome> CorruptionLinkingAdversary::RunTrial(
    const AttackContext& context, size_t trial, Rng& rng) const {
  (void)trial;
  if (context.release != nullptr && context.release->IsPg()) {
    return PgLinkingTrial(context, rng, context.options->corruption_rate,
                          context.options->prior_kind);
  }
  return GenTrial(context, rng, context.options->corruption_rate,
                  context.options->prior_kind);
}

Result<TrialOutcome> WorstCaseBackgroundAdversary::RunTrial(
    const AttackContext& context, size_t trial, Rng& rng) const {
  (void)trial;
  if (context.release != nullptr && context.release->IsPg()) {
    return PgLinkingTrial(context, rng, /*corruption_rate=*/1.0,
                          BreachHarnessOptions::PriorKind::kSkewTrue);
  }
  return GenTrial(context, rng, /*corruption_rate=*/1.0,
                  BreachHarnessOptions::PriorKind::kSkewTrue);
}

Result<TrialOutcome> TransparentReplayAdversary::RunTrial(
    const AttackContext& context, size_t trial, Rng& rng) const {
  (void)trial;
  if (context.release != nullptr && context.release->IsPg()) {
    return TransparentPgTrial(context, rng);
  }
  // A conventional generalization is already exact — replaying the known
  // deterministic algorithm over candidate inputs reconstructs every
  // tuple, which the random-worlds model expresses as full corruption.
  return GenTrial(context, rng, /*corruption_rate=*/1.0,
                  context.options->prior_kind);
}

}  // namespace pgpub
