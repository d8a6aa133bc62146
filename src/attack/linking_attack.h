#pragma once

#include <cstdint>
#include <vector>

#include "attack/adversary.h"
#include "attack/external_db.h"
#include "common/result.h"
#include "core/published_table.h"

namespace pgpub {

/// Outcome of one corruption-aided linking attack (Section V).
struct AttackResult {
  size_t crucial_row = 0;   ///< Published tuple t found in step A1.
  int32_t observed_y = 0;   ///< t's (possibly perturbed) sensitive value.
  uint32_t g_value = 0;     ///< t.G.
  size_t e = 0;             ///< |𝒪| — candidates other than the victim (A2).
  size_t alpha = 0;         ///< |𝒞 ∩ 𝒪|.
  size_t beta = 0;          ///< Non-extraneous members of 𝒞 ∩ 𝒪.
  double g = 0.0;           ///< Membership probability of unknowns (Eq. 13).
  double h = 0.0;           ///< P[o owns t | y] (Eq. 8/14).
  std::vector<double> posterior;  ///< P[X = x | y] (Eq. 9).
};

// Predicate functionals of an adversary's posterior pdf over U^s — of a
// linking attack's AttackResult::posterior or of any other attack model's.

/// Posterior confidence of predicate Q (Equation 10). Fails if `q` is
/// not a predicate over the posterior's domain.
[[nodiscard]] Result<double> Confidence(const std::vector<double>& posterior,
                                        const std::vector<bool>& q);

/// The adversary's best possible knowledge growth over any predicate:
/// Σ_x max(0, posterior[x] - prior[x]). By Theorem 1's argument this is
/// attained by a Q containing exactly the values whose mass grew.
/// Fails if `prior` is over a different domain than the posterior.
[[nodiscard]] Result<double> MaxGrowth(const std::vector<double>& posterior,
                                       const BackgroundKnowledge& prior);

/// Greedy search for the predicate with the largest posterior confidence
/// among those with prior confidence <= rho1; returns that posterior
/// confidence (a lower bound on the adversary's optimum).
[[nodiscard]] Result<double> MaxPosteriorGivenPriorBound(
    const std::vector<double>& posterior, const BackgroundKnowledge& prior,
    double rho1);

/// Exact (up to the prior grid `resolution`) optimum of the same
/// predicate search via 0/1 knapsack: maximize sum of posterior over Q
/// subject to sum of prior over Q <= rho1. Priors are rounded *down* to
/// the grid, so the result upper-bounds the true optimum by at most
/// |U^s| * resolution worth of prior slack — suitable for verifying
/// that even an optimal adversary stays below the Theorem 2 bound.
/// Fails on a domain mismatch or a non-positive `resolution`.
[[nodiscard]] Result<double> MaxPosteriorGivenPriorBoundExact(
    const std::vector<double>& posterior, const BackgroundKnowledge& prior,
    double rho1, double resolution = 1e-4);

/// \brief Executes corruption-aided linking attacks (steps A1–A3) against a
/// PG release, with the exact probabilistic analysis of Section V-B /
/// Section VI (Equations 8–19).
class LinkingAttack {
 public:
  /// Validating factory. Both referents must be non-null, must outlive the
  /// attacker, and the external database's QI attributes must match the
  /// release's — a mismatched ℰ would silently make every attack vacuous,
  /// so it is rejected up front.
  [[nodiscard]] static Result<LinkingAttack> Create(
      const PublishedTable* published, const ExternalDatabase* edb);

  /// Attacks the victim (an ℰ index that must be non-extraneous and must
  /// not be in `adversary.corrupted`).
  [[nodiscard]] Result<AttackResult> Attack(size_t victim_index,
                                            const Adversary& adversary) const;

  /// Step A1 for ℰ individual `individual`: the published row its QI
  /// vector generalizes to. InvalidArgument when the index is out of
  /// range; NotFound when no published tuple matches (possible only for
  /// extraneous individuals of a well-formed release).
  [[nodiscard]] Result<size_t> CrucialRow(size_t individual) const;

  /// Step A2 over published row `row` (< published->num_rows()): every ℰ
  /// individual whose QI vector generalizes to it, in ascending ℰ order.
  /// For a victim's crucial row the victim is among them and the rest
  /// are 𝒪.
  const std::vector<uint32_t>& Candidates(size_t row) const {
    return candidates_of_row_[row];
  }

 private:
  LinkingAttack(const PublishedTable* published, const ExternalDatabase* edb)
      : published_(published), edb_(edb) {}

  const PublishedTable* published_;
  const ExternalDatabase* edb_;
  // Filled by Create's single scan of ℰ; every crucial-row and
  // candidate-set lookup in the attack layer reads these two.
  /// Crucial-row id per ℰ individual (-1 = no match).
  std::vector<int64_t> crucial_of_individual_;
  /// ℰ individuals per published row (candidate lists).
  std::vector<std::vector<uint32_t>> candidates_of_row_;
};

/// \brief Baseline: the same linking attack against a *conventional*
/// generalized table (no perturbation, no sampling — every tuple published
/// with exact sensitive values). Returns the adversary's posterior pdf for
/// the victim under the random-worlds model: corruption removes the
/// corrupted members' sensitive values from the victim's QI-group multiset,
/// and the victim is equally likely to own any remaining tuple.
///
/// This realizes the Section III defect analysis (Lemmas 1 and 2): with
/// enough corruption the posterior collapses to a point mass.
/// Fails on a prior/domain mismatch, a corrupted victim, or a victim
/// outside `victim_group_rows`.
[[nodiscard]] Result<std::vector<double>> GeneralizationAttackPosterior(
    const Table& microdata, const std::vector<uint32_t>& victim_group_rows,
    int sensitive_attr, uint32_t victim_row,
    const std::vector<uint32_t>& corrupted_rows,
    const BackgroundKnowledge& prior);

}  // namespace pgpub
