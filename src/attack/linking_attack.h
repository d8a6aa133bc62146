#pragma once

#include <cstdint>
#include <span>
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

/// Optimum, up to the prior grid `resolution`, of the predicate search:
/// the largest posterior confidence of a Q whose prior confidence is
/// <= rho1, as a 0/1 knapsack. Each prior is rounded *down* to the grid
/// (cost ⌊prior/resolution⌋, budget ⌊rho1/resolution⌋), so any predicate
/// feasible under the true priors stays feasible and the result
/// upper-bounds the true optimum by at most |U^s| * resolution worth of
/// prior slack — suitable for verifying that even an optimal adversary
/// stays below the Theorem 2 bound.
///
/// Solved over a Pareto frontier, not a dense array over the budget: a
/// list of (cost, best value) pairs ascending in cost and strictly
/// ascending in value, starting at (0, 0). Value i merges the list with a
/// copy shifted by (cost_i, +posterior[i]), keeps the pairs within
/// budget and drops dominated ones; the answer is the last value. Each
/// value is computed as `v + posterior[i]`, the addition the dense DP
/// `best[b] = max(best[b], best[b - cost_i] + posterior[i])` makes, and
/// rounded addition is monotone, so both return the maximum over feasible
/// subsets of their posteriors summed in index order: the grid DP's
/// double, bit for bit (attack_test pins this against a copy of the DP).
///
/// Cost: O(|U^s| × frontier length), and the frontier holds at most one
/// pair per reachable cost — |U^s| + 1 for a Uniform or an Excluding
/// prior, 2|U^s| for SkewedTowards (at most two masses, one of them held
/// by one value or free), and never more than the dense array's
/// ⌊rho1/resolution⌋ + 1 for a general prior such as RandomSkewed.
/// Fails on a domain mismatch, a non-positive `resolution`, a negative or
/// NaN prior mass, a NaN posterior, or a rho1 outside
/// [0, 2^62 × resolution).
[[nodiscard]] Result<double> MaxPosteriorGivenPriorBoundExact(
    const std::vector<double>& posterior, const BackgroundKnowledge& prior,
    double rho1, double resolution = 1e-4);

/// \brief Executes corruption-aided linking attacks (steps A1–A3) against a
/// PG release, with the exact probabilistic analysis of Section V-B /
/// Section VI (Equations 8–19).
class LinkingAttack {
 public:
  /// Validating factory: indexes ℰ against the release in one pass. Both
  /// referents must be non-null and must outlive the attacker. Fails when
  /// the external database's QI attributes do not match the release's (a
  /// mismatched ℰ would silently make every attack vacuous), when the
  /// release's QI signature space overflows uint64 (its cells cannot be
  /// keyed), or when an individual's QI codes do not fit the release's
  /// domains.
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
  /// are 𝒪. The view lives as long as the attacker.
  std::span<const uint32_t> Candidates(size_t row) const {
    return std::span<const uint32_t>(candidates_)
        .subspan(offsets_[row], offsets_[row + 1] - offsets_[row]);
  }

  /// The non-extraneous ℰ individuals (the microdata members, i.e. the
  /// victim pool), ascending.
  const std::vector<size_t>& Members() const { return members_; }

 private:
  /// Crucial-row entry of an individual no published tuple generalizes.
  static constexpr uint32_t kNoRow = UINT32_MAX;

  LinkingAttack(const PublishedTable* published, const ExternalDatabase* edb)
      : published_(published), edb_(edb) {}

  const PublishedTable* published_;
  const ExternalDatabase* edb_;
  // Filled by Create's pass over ℰ; every crucial-row, candidate-set and
  // victim-pool lookup in the attack layer reads these.
  /// Crucial row per ℰ individual (kNoRow = no match).
  std::vector<uint32_t> crucial_of_individual_;
  /// Candidate lists, CSR: row r's individuals are
  /// candidates_[offsets_[r], offsets_[r + 1]), ascending.
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> candidates_;
  std::vector<size_t> members_;
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
