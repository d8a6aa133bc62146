#pragma once

#include <string>
#include <string_view>

#include "attack/scenario.h"
#include "core/pg_publisher.h"
#include "diversity/ldiversity.h"

namespace pgpub {

/// Instantiates the Section VI theorem bounds (Inequality 20, Theorems 2
/// and 3) for a PG release against the harness's adversary parameters —
/// the GuaranteeBounds every PG-family publisher declares. λ is clamped to
/// 1/|U^s| like the guarantee formulas require.
GuaranteeBounds PgTheoremBounds(const PublishedTable& published,
                                const BreachHarnessOptions& harness);

/// \brief Wraps the paper's publisher (PgPublisher, or the fail-closed
/// RobustPublisher) as a scenario Publisher. Always publishes with
/// keep_provenance so the transparent adversary has its replay ground
/// truth; `hooks` is forwarded to the wrapped pipeline. The pessimistic
/// baseline of Section VII — generalize and fully randomize, p = 0 — is
/// the same pipeline at p = 0, exposed via Pessimistic().
class PgScenarioPublisher : public Publisher {
 public:
  struct Config {
    int k = 4;
    /// Retention probability; negative solves from `target`.
    double p = 0.3;
    PrivacyTarget target;
    /// Route through RobustPublisher (retries + audit) instead of the raw
    /// pipeline.
    bool robust = false;
    std::string label = "pg";
  };

  /// Default config: the paper's operating point p=0.3, k=4.
  PgScenarioPublisher();
  explicit PgScenarioPublisher(Config config);

  /// The paper's pessimistic yardstick: k-anonymous generalization with
  /// the sensitive column fully randomized (p = 0).
  static Config Pessimistic(int k = 4);

  std::string_view name() const override { return config_.label; }

  [[nodiscard]] Result<Release> Publish(const ScenarioDataset& dataset,
                                        const ScenarioOptions& options,
                                        PublishHooks* hooks) const override;

 private:
  Config config_;
};

/// \brief Conventional k-anonymous generalization via TDS, publishing
/// every tuple with its exact sensitive value — the paper's *optimistic*
/// yardstick, and the base class for rival-guarantee publishers that add a
/// per-group constraint. Declares no bounds by default (plain k-anonymity
/// promises nothing about sensitive inference).
class GeneralizationScenarioPublisher : public Publisher {
 public:
  explicit GeneralizationScenarioPublisher(int k = 4,
                                           std::string label = "optimistic")
      : k_(k), label_(std::move(label)) {}

  std::string_view name() const override { return label_; }

  [[nodiscard]] Result<Release> Publish(const ScenarioDataset& dataset,
                                        const ScenarioOptions& options,
                                        PublishHooks* hooks) const override;

  int k() const { return k_; }

 protected:
  /// The per-group constraint to enforce for this dataset, or null for
  /// plain k-anonymity. Constraints that depend on the dataset (e.g.
  /// β-likeness needs the global sensitive distribution) park their
  /// instance in `*holder`; the returned pointer must stay valid for the
  /// duration of the publish.
  [[nodiscard]] virtual Result<const GroupConstraint*> MakeConstraint(
      const ScenarioDataset& dataset,
      std::unique_ptr<GroupConstraint>* holder) const;

  /// The bounds this publisher claims for the release (against the
  /// scenario's λ/ρ₁). Default: unbounded.
  virtual GuaranteeBounds DeclaredBounds(const ScenarioDataset& dataset,
                                         const ScenarioOptions& options) const;

 private:
  int k_;
  std::string label_;
};

/// \brief Rival guarantee #1: (c,ℓ)-diversity (the principle the paper's
/// Section III dissects). Claims the Inequality-3 posterior ceiling
/// c/(c+1) — stated against the principle's own assumed prior — which the
/// corruption adversaries then empirically demolish (Lemmas 1–2).
class CLDiversityScenarioPublisher : public GeneralizationScenarioPublisher {
 public:
  CLDiversityScenarioPublisher(double c, int l, int k = 4);

 protected:
  Result<const GroupConstraint*> MakeConstraint(
      const ScenarioDataset& dataset,
      std::unique_ptr<GroupConstraint>* holder) const override;
  GuaranteeBounds DeclaredBounds(const ScenarioDataset& dataset,
                                 const ScenarioOptions& options) const override;

 private:
  CLDiversity diversity_;
};

/// \brief Rival guarantee #2: β-likeness (Cao & Karras) — every group's
/// sensitive frequencies within a (1+β) factor of the table-wide ones.
/// Claims growth <= min(1, β) and posterior <= min(1, (1+β)·ρ₁), both
/// stated against the guarantee's assumed prior (the public global
/// distribution); the scenario measures them against λ-skewed priors plus
/// corruption, which the guarantee never modeled.
class BetaLikenessScenarioPublisher : public GeneralizationScenarioPublisher {
 public:
  explicit BetaLikenessScenarioPublisher(double beta, int k = 4);

 protected:
  Result<const GroupConstraint*> MakeConstraint(
      const ScenarioDataset& dataset,
      std::unique_ptr<GroupConstraint>* holder) const override;
  GuaranteeBounds DeclaredBounds(const ScenarioDataset& dataset,
                                 const ScenarioOptions& options) const override;

 private:
  double beta_;
};

/// \brief Adapts an existing PG release (engine output, a legacy caller's
/// table) as a Publisher: "publishing" copies the table and instantiates
/// the theorem bounds.
class FixedPgRelease : public Publisher {
 public:
  /// `published` must outlive the adapter.
  explicit FixedPgRelease(const PublishedTable* published,
                          std::string label = "pg")
      : published_(published), label_(std::move(label)) {}

  std::string_view name() const override { return label_; }

  [[nodiscard]] Result<Release> Publish(const ScenarioDataset& dataset,
                                        const ScenarioOptions& options,
                                        PublishHooks* hooks) const override;

 private:
  const PublishedTable* published_;
  std::string label_;
};

/// \brief Adapts an existing conventional grouping as a Publisher (no
/// bounds claimed).
class FixedGeneralizationRelease : public Publisher {
 public:
  /// `groups` must outlive the adapter.
  explicit FixedGeneralizationRelease(const QiGroups* groups,
                                      std::string label = "generalization")
      : groups_(groups), label_(std::move(label)) {}

  std::string_view name() const override { return label_; }

  [[nodiscard]] Result<Release> Publish(const ScenarioDataset& dataset,
                                        const ScenarioOptions& options,
                                        PublishHooks* hooks) const override;

 private:
  const QiGroups* groups_;
  std::string label_;
};

}  // namespace pgpub
