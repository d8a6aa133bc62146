#include "attack/adversaries.h"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

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

/// Folds a trial's posterior into its outcome: the best-predicate growth,
/// the optimal adversary's posterior confidence under prior <= ρ₁ (the
/// grid knapsack), and whether the posterior collapsed to a point.
Result<TrialOutcome> FoldOutcome(const std::vector<double>& posterior,
                                 const BackgroundKnowledge& prior, double h,
                                 double rho1) {
  TrialOutcome out;
  out.h = h;
  ASSIGN_OR_RETURN(out.growth, MaxGrowth(posterior, prior));
  ASSIGN_OR_RETURN(out.posterior_rho1,
                   MaxPosteriorGivenPriorBoundExact(posterior, prior, rho1));
  out.point_mass = PosteriorSupport(posterior) == 1;
  return out;
}

/// A PG trial's victim: a uniformly drawn microdata member of ℰ, its
/// crucial row from the linker's index, and the harness prior about it.
struct PgVictim {
  size_t index = 0;  ///< ℰ index.
  uint32_t microdata_row = 0;
  size_t crucial_row = 0;
  BackgroundKnowledge prior;
};

/// Draws the victim, then the prior — the draw sequence every PG trial
/// shares, pinned by the seed-42 scenario goldens.
Result<PgVictim> DrawPgVictim(const AttackContext& context, Rng& rng,
                              BreachHarnessOptions::PriorKind kind) {
  const std::vector<size_t>& members = *context.members;
  PgVictim victim;
  victim.index = members[rng.UniformU64(members.size())];
  victim.microdata_row = static_cast<uint32_t>(
      context.edb->individual(victim.index).microdata_row);
  const int32_t true_value =
      context.microdata->value(victim.microdata_row, context.sensitive_attr);
  ASSIGN_OR_RETURN(victim.prior,
                   MakePrior(kind, context.us, true_value,
                             context.options->lambda, rng));
  auto crucial = context.linker->CrucialRow(victim.index);
  if (!crucial.ok()) {
    return crucial.status().WithContext(
        "microdata member has no crucial tuple");
  }
  victim.crucial_row = *crucial;
  return victim;
}

/// One corruption-aided linking trial against a PG release, with the
/// corruption rate and prior kind as parameters so the worst-case
/// adversary can reuse it.
Result<TrialOutcome> PgLinkingTrial(const AttackContext& context, Rng& rng,
                                    double corruption_rate,
                                    BreachHarnessOptions::PriorKind kind) {
  RETURN_IF_ERROR(RequirePg(context));
  const ExternalDatabase& edb = *context.edb;
  const Table& microdata = *context.microdata;
  const int sens = context.sensitive_attr;
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();

  ASSIGN_OR_RETURN(PgVictim victim, DrawPgVictim(context, rng, kind));
  Adversary adv;
  adv.victim_prior = std::move(victim.prior);

  // Corrupt candidates sharing the victim's published cell (the most
  // damaging corruption targets), one coin per candidate in ℰ order.
  const std::span<const uint32_t> candidates =
      context.linker->Candidates(victim.crucial_row);
  for (uint32_t i : candidates) {
    if (i == victim.index) continue;
    if (!rng.Bernoulli(corruption_rate)) continue;
    const Individual& ind = edb.individual(i);
    adv.corrupted[i] = ind.extraneous()
                           ? Adversary::kExtraneousMark
                           : microdata.value(ind.microdata_row, sens);
  }
  metrics.GetHistogram("attack.candidate_set")->Observe(candidates.size());
  metrics.GetCounter("attack.corruption_draws")->Add(candidates.size() - 1);
  metrics.GetCounter("attack.corrupted")->Add(adv.corrupted.size());

  ASSIGN_OR_RETURN(AttackResult result,
                   context.linker->Attack(victim.index, adv));
  metrics.GetCounter("attack.attacks")->Add();
  return FoldOutcome(result.posterior, adv.victim_prior, result.h,
                     context.options->rho1);
}

/// One corruption trial against a conventional generalization,
/// parameterized the same way.
Result<TrialOutcome> GenTrial(const AttackContext& context, Rng& rng,
                              double corruption_rate,
                              BreachHarnessOptions::PriorKind kind) {
  RETURN_IF_ERROR(RequireGen(context));
  const Table& microdata = *context.microdata;
  const QiGroups& groups = *context.groups;
  const int sens = context.sensitive_attr;
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();

  const uint32_t victim_row =
      static_cast<uint32_t>(rng.UniformU64(microdata.num_rows()));
  const int32_t true_value = microdata.value(victim_row, sens);
  const auto& group_rows = groups.group_rows[groups.row_to_group[victim_row]];

  ASSIGN_OR_RETURN(BackgroundKnowledge prior,
                   MakePrior(kind, context.us, true_value,
                             context.options->lambda, rng));

  metrics.GetHistogram("attack.candidate_set")->Observe(group_rows.size());
  std::vector<uint32_t> corrupted;
  for (uint32_t r : group_rows) {
    if (r == victim_row) continue;
    if (rng.Bernoulli(corruption_rate)) {
      corrupted.push_back(r);
    }
  }
  metrics.GetCounter("attack.corruption_draws")->Add(group_rows.size() - 1);
  metrics.GetCounter("attack.corrupted")->Add(corrupted.size());
  metrics.GetCounter("attack.attacks")->Add();

  ASSIGN_OR_RETURN(
      std::vector<double> post,
      GeneralizationAttackPosterior(microdata, group_rows, sens, victim_row,
                                    corrupted, prior));
  // Every tuple of a conventional release is published, so ownership of
  // the victim's record is certain.
  return FoldOutcome(post, prior, /*h=*/1.0, context.options->rho1);
}

/// The transparent adversary's PG trial: victim and prior are drawn
/// exactly like a linking trial, then the replay (provenance) resolves
/// whether the victim's tuple was sampled, leaving only the perturbation
/// channel to invert.
Result<TrialOutcome> TransparentPgTrial(const AttackContext& context,
                                        Rng& rng) {
  RETURN_IF_ERROR(RequirePg(context));
  const PublishedTable& published = *context.release->pg;
  if (!published.provenance().has_value()) {
    return Status::FailedPrecondition(
        "transparent adversary needs the provenance side channel: publish "
        "with PgOptions::keep_provenance (the scenario publishers do)");
  }
  const int32_t us = context.us;

  ASSIGN_OR_RETURN(PgVictim victim,
                   DrawPgVictim(context, rng, context.options->prior_kind));
  const BackgroundKnowledge& prior = victim.prior;
  const uint32_t source_row =
      published.provenance()->source_row[victim.crucial_row];
  const int32_t observed_y = published.sensitive(victim.crucial_row);
  obs::MetricsRegistry::Global().GetCounter("attack.attacks")->Add();

  if (source_row != victim.microdata_row) {
    // Replay shows someone else's tuple was sampled for the victim's cell;
    // under the memoryless channel the release then carries no information
    // about the victim beyond the prior.
    return FoldOutcome(prior.pdf, prior, /*h=*/0.0, context.options->rho1);
  }
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
  return FoldOutcome(post, prior, /*h=*/1.0, context.options->rho1);
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
