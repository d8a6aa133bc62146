#include "attack/linking_attack.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "common/math_util.h"
#include "common/string_util.h"
#include "perturb/randomized_response.h"

namespace pgpub {

namespace {

/// All the predicate functionals compare the adversary's pdf against the
/// posterior; a size mismatch means the caller mixed up sensitive domains.
Status ValidateSameDomain(size_t prior_size, size_t posterior_size) {
  if (prior_size != posterior_size) {
    return Status::InvalidArgument(
        StrFormat("prior pdf size %zu != posterior size %zu", prior_size,
                  posterior_size));
  }
  return Status::OK();
}

}  // namespace

Result<double> Confidence(const std::vector<double>& posterior,
                          const std::vector<bool>& q) {
  RETURN_IF_ERROR(ValidateSameDomain(q.size(), posterior.size()));
  double confidence = 0.0;
  for (size_t i = 0; i < posterior.size(); ++i) {
    if (q[i]) confidence += posterior[i];
  }
  return confidence;
}

Result<double> MaxGrowth(const std::vector<double>& posterior,
                         const BackgroundKnowledge& prior) {
  RETURN_IF_ERROR(ValidateSameDomain(prior.pdf.size(), posterior.size()));
  double growth = 0.0;
  for (size_t i = 0; i < posterior.size(); ++i) {
    growth += std::max(0.0, posterior[i] - prior.pdf[i]);
  }
  return growth;
}

Result<double> MaxPosteriorGivenPriorBound(
    const std::vector<double>& posterior, const BackgroundKnowledge& prior,
    double rho1) {
  RETURN_IF_ERROR(ValidateSameDomain(prior.pdf.size(), posterior.size()));
  const size_t m = posterior.size();
  std::vector<size_t> order(m);
  std::iota(order.begin(), order.end(), 0);

  auto greedy = [&](auto cmp) {
    std::vector<size_t> o = order;
    std::sort(o.begin(), o.end(), cmp);
    double prior_used = 0.0, post = 0.0;
    for (size_t i : o) {
      if (prior_used + prior.pdf[i] <= rho1 + 1e-12) {
        prior_used += prior.pdf[i];
        post += posterior[i];
      }
    }
    return post;
  };

  // Order 1: largest posterior first.
  const double by_post = greedy([&](size_t a, size_t b) {
    return posterior[a] > posterior[b];
  });
  // Order 2: best posterior-per-unit-prior first (zero-prior values are
  // free and sorted to the front by their posterior).
  const double by_ratio = greedy([&](size_t a, size_t b) {
    const bool za = prior.pdf[a] <= 0.0, zb = prior.pdf[b] <= 0.0;
    if (za != zb) return za;
    if (za && zb) return posterior[a] > posterior[b];
    return posterior[a] / prior.pdf[a] > posterior[b] / prior.pdf[b];
  });
  return std::max(by_post, by_ratio);
}

Result<double> MaxPosteriorGivenPriorBoundExact(
    const std::vector<double>& posterior, const BackgroundKnowledge& prior,
    double rho1, double resolution) {
  RETURN_IF_ERROR(ValidateSameDomain(prior.pdf.size(), posterior.size()));
  if (!(resolution > 0.0)) {
    return Status::InvalidArgument(
        StrFormat("knapsack grid resolution must be positive, got %g",
                  resolution));
  }
  const size_t m = posterior.size();
  // Round each prior down to the grid: any predicate feasible under the
  // true priors stays feasible under the rounded ones, so the DP optimum
  // dominates the adversary's true optimum.
  std::vector<int64_t> cost(m);
  for (size_t i = 0; i < m; ++i) {
    cost[i] = static_cast<int64_t>(prior.pdf[i] / resolution);
  }
  const int64_t budget = static_cast<int64_t>(rho1 / resolution);
  std::vector<double> best(budget + 1, 0.0);
  for (size_t i = 0; i < m; ++i) {
    if (cost[i] > budget) continue;
    for (int64_t b = budget; b >= cost[i]; --b) {
      best[b] = std::max(best[b], best[b - cost[i]] + posterior[i]);
    }
  }
  return best[budget];
}

Result<LinkingAttack> LinkingAttack::Create(const PublishedTable* published,
                                            const ExternalDatabase* edb) {
  if (published == nullptr) {
    return Status::InvalidArgument("published table must not be null");
  }
  if (edb == nullptr) {
    return Status::InvalidArgument("external database must not be null");
  }
  if (edb->qi_attrs() != published->recoding().qi_attrs) {
    return Status::InvalidArgument(
        "external database QI attributes must match the release's");
  }
  LinkingAttack attack(published, edb);
  attack.crucial_of_individual_.assign(edb->size(), -1);
  attack.candidates_of_row_.assign(published->num_rows(), {});
  for (size_t i = 0; i < edb->size(); ++i) {
    auto row = published->CrucialTuple(edb->individual(i).qi_codes);
    if (row.ok()) {
      attack.crucial_of_individual_[i] = static_cast<int64_t>(*row);
      attack.candidates_of_row_[*row].push_back(static_cast<uint32_t>(i));
    }
  }
  return attack;
}

Result<size_t> LinkingAttack::CrucialRow(size_t individual) const {
  if (individual >= crucial_of_individual_.size()) {
    return Status::InvalidArgument(
        StrFormat("ℰ individual %zu out of range [0,%zu)", individual,
                  crucial_of_individual_.size()));
  }
  const int64_t row = crucial_of_individual_[individual];
  if (row < 0) {
    return Status::NotFound(
        StrFormat("no published tuple generalizes ℰ individual %zu",
                  individual));
  }
  return static_cast<size_t>(row);
}

Result<AttackResult> LinkingAttack::Attack(size_t victim_index,
                                           const Adversary& adversary) const {
  if (victim_index >= edb_->size()) {
    return Status::InvalidArgument("victim index out of range");
  }
  const Individual& victim = edb_->individual(victim_index);
  if (victim.extraneous()) {
    return Status::InvalidArgument(
        "the attack model assumes the adversary knows the victim is in "
        "the microdata (Section II-B)");
  }
  if (adversary.corrupted.count(victim_index) > 0) {
    return Status::InvalidArgument(
        "a corrupted victim needs no linking attack");
  }
  const int32_t us =
      published_->domain(published_->sensitive_attr()).size();
  if (static_cast<int32_t>(adversary.victim_prior.pdf.size()) != us) {
    return Status::InvalidArgument("victim prior pdf size != |U^s|");
  }
  if (!adversary.others_prior.empty() &&
      static_cast<int32_t>(adversary.others_prior.size()) != us) {
    return Status::InvalidArgument("others prior pdf size != |U^s|");
  }

  AttackResult result;

  // ---- Step A1: the crucial tuple.
  const Result<size_t> crucial = CrucialRow(victim_index);
  if (!crucial.ok()) {
    return Status::Internal(
        "microdata member has no crucial tuple — release is malformed");
  }
  result.crucial_row = *crucial;
  result.observed_y = published_->sensitive(result.crucial_row);
  result.g_value = published_->group_size(result.crucial_row);

  // ---- Step A2: candidate set 𝒪 (everyone but the victim matching t).
  const std::vector<uint32_t>& all_candidates =
      Candidates(result.crucial_row);
  std::vector<uint32_t> others;
  others.reserve(all_candidates.size());
  for (uint32_t c : all_candidates) {
    if (c != victim_index) others.push_back(c);
  }
  result.e = others.size();
  if (result.e + 1 < result.g_value) {
    return Status::Internal(
        "candidate set smaller than the stratum size — ℰ does not cover "
        "the microdata");
  }

  // ---- Step A3: posterior computation (Equations 11-19).
  const double p = published_->retention_p();
  const UniformPerturbation channel(p, us);
  const double noise = (1.0 - p) / static_cast<double>(us);
  const double big_g = static_cast<double>(result.g_value);
  const int32_t y = result.observed_y;
  const std::vector<double>& prior = adversary.victim_prior.pdf;

  // Classify 𝒞 ∩ 𝒪.
  std::vector<int32_t> corrupted_values;  // the x_i of the β insiders
  for (uint32_t c : others) {
    auto it = adversary.corrupted.find(c);
    if (it == adversary.corrupted.end()) continue;
    ++result.alpha;
    if (it->second != Adversary::kExtraneousMark) {
      ++result.beta;
      corrupted_values.push_back(it->second);
    }
  }
  if (result.beta + 1 > result.g_value) {
    return Status::InvalidArgument(
        "corruption results are inconsistent: more confirmed insiders "
        "than the stratum holds");
  }

  // Equation 13: membership probability of each unknown candidate.
  const size_t unknowns = result.e - result.alpha;
  result.g = unknowns == 0
                 ? 0.0
                 : (big_g - 1.0 - static_cast<double>(result.beta)) /
                       static_cast<double>(unknowns);

  // Equation 15: P[o owns t, y].
  const double obs_prob = channel.ObservationProb(prior, y);
  const double numerator = obs_prob / big_g;

  // Equation 17: P[y].
  double denominator = numerator;
  for (int32_t x : corrupted_values) {
    denominator += channel.TransitionProb(x, y) / big_g;  // Equation 18
  }
  if (unknowns > 0) {
    const double others_y = adversary.others_prior.empty()
                                ? 1.0 / static_cast<double>(us)
                                : adversary.others_prior[y];
    // Equation 19, summed over the e - alpha unknown candidates.
    denominator += static_cast<double>(unknowns) * result.g / big_g *
                   (p * others_y + noise);
  }

  result.h = denominator > 0.0 ? numerator / denominator : 0.0;

  // Equations 9 and 12: posterior pdf.
  result.posterior.resize(us);
  for (int32_t x = 0; x < us; ++x) {
    double conditional;  // P[X = x | Y = y]
    if (obs_prob > 0.0) {
      conditional = prior[x] * channel.TransitionProb(x, y) / obs_prob;
    } else {
      conditional = prior[x];
    }
    result.posterior[x] =
        result.h * conditional + (1.0 - result.h) * prior[x];
  }
  return result;
}

Result<std::vector<double>> GeneralizationAttackPosterior(
    const Table& microdata, const std::vector<uint32_t>& victim_group_rows,
    int sensitive_attr, uint32_t victim_row,
    const std::vector<uint32_t>& corrupted_rows,
    const BackgroundKnowledge& prior) {
  const int32_t us = microdata.domain(sensitive_attr).size();
  if (static_cast<int32_t>(prior.pdf.size()) != us) {
    return Status::InvalidArgument(
        StrFormat("prior pdf size %zu != sensitive domain size %d",
                  prior.pdf.size(), us));
  }

  // Sensitive multiset of the victim's QI-group, minus corrupted members.
  std::unordered_set<uint32_t> corrupted(corrupted_rows.begin(),
                                         corrupted_rows.end());
  if (corrupted.count(victim_row) > 0) {
    return Status::InvalidArgument("the victim cannot be corrupted");
  }
  std::vector<double> counts(us, 0.0);
  bool victim_in_group = false;
  for (uint32_t r : victim_group_rows) {
    if (r == victim_row) victim_in_group = true;
    if (corrupted.count(r) > 0) continue;
    counts[microdata.value(r, sensitive_attr)] += 1.0;
  }
  if (!victim_in_group) {
    return Status::InvalidArgument("victim not in the given QI-group");
  }

  // Random-worlds posterior restricted to the prior's support: the victim
  // is equally likely to be any remaining tuple whose value the prior does
  // not rule out.
  std::vector<double> post(us, 0.0);
  double total = 0.0;
  for (int32_t x = 0; x < us; ++x) {
    if (prior.pdf[x] > 0.0) {
      post[x] = counts[x];
      total += counts[x];
    }
  }
  if (total <= 0.0) return prior.pdf;  // inconsistent corruption; no update
  for (double& v : post) v /= total;
  return post;
}

}  // namespace pgpub
