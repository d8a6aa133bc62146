#pragma once

#include <string_view>

#include "attack/scenario.h"

namespace pgpub {

/// \brief The paper's Section V adversary: corrupts each candidate sharing
/// the victim's published cell independently with
/// BreachHarnessOptions::corruption_rate, builds the harness prior
/// (prior_kind), and runs the corruption-aided linking attack (Equations
/// 8–19) against PG releases, or the random-worlds posterior against
/// conventional generalizations. Its trial draws are pinned by the
/// seed-42 scenario goldens.
class CorruptionLinkingAdversary : public AdversaryModel {
 public:
  std::string_view name() const override { return "corruption-linking"; }

  [[nodiscard]] Result<TrialOutcome> RunTrial(const AttackContext& context,
                                              size_t trial,
                                              Rng& rng) const override;
};

/// \brief Worst-case background knowledge à la Martin et al.: the
/// strongest adversary inside Definition 4's λ-bounded family. Ignores the
/// harness's corruption_rate and prior_kind and always (a) skews mass λ
/// onto the victim's true value and (b) corrupts every candidate in the
/// victim's cell (𝒞 = ℰ - {o}). The PG theorems quantify over exactly this
/// family, so PG must hold here too; rival claims assuming a weaker prior
/// often do not.
class WorstCaseBackgroundAdversary : public AdversaryModel {
 public:
  std::string_view name() const override { return "worst-background"; }

  [[nodiscard]] Result<TrialOutcome> RunTrial(const AttackContext& context,
                                              size_t trial,
                                              Rng& rng) const override;
};

/// \brief Transparent adversary (Xiao, Tao & Koudas, "Transparent
/// Anonymization"): knows the publication algorithm itself and replays it
/// over candidate inputs. Modeled at its upper envelope: every non-channel
/// random choice (Phase-2 grouping, Phase-3 sampling) is resolved exactly
/// — the limit of replay attacks — leaving only Phase 1's memoryless
/// perturbation hidden, so the posterior is the exact channel inversion
/// P[x|y] ∝ prior(x)·P[x→y] whenever the victim's own tuple was sampled
/// (and the prior itself otherwise, with the victim's absence known).
///
/// Implementation: reads the release's provenance side channel
/// (PublishedTable::Provenance, the evaluation-only record of what a
/// perfect replay would reconstruct) — PG releases must be published with
/// keep_provenance, which the scenario publishers do. Against a
/// conventional generalization the whole release is already exact, so the
/// model degenerates to full corruption of the victim's group.
///
/// This is the escalation the paper's corruption model predicts: the
/// Theorem 2/3 bounds average over sampling, so an adversary who *knows*
/// the victim was sampled exceeds them on those trials.
class TransparentReplayAdversary : public AdversaryModel {
 public:
  std::string_view name() const override { return "transparent"; }

  [[nodiscard]] Result<TrialOutcome> RunTrial(const AttackContext& context,
                                              size_t trial,
                                              Rng& rng) const override;
};

}  // namespace pgpub
