#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "generalize/qi_groups.h"

namespace pgpub {

/// \brief Distinct ℓ-diversity: every group must contain at least ℓ
/// different sensitive values (Machanavajjhala et al.'s simplest version,
/// used by Table Ic of the paper with ℓ = 2).
class DistinctLDiversity : public GroupConstraint {
 public:
  explicit DistinctLDiversity(int l);

  bool Satisfied(const std::vector<int64_t>& histogram) const override;
  std::string name() const override;

  int l() const { return l_; }

 private:
  int l_;
};

/// \brief (c,ℓ)-diversity: with group frequencies n_1 >= n_2 >= ... >= n_l',
/// requires n_1 <= c * (n_l + n_{l+1} + ... + n_{l'}) — Inequality 1 of the
/// paper. Implies at least ℓ distinct values.
class CLDiversity : public GroupConstraint {
 public:
  CLDiversity(double c, int l);

  bool Satisfied(const std::vector<int64_t>& histogram) const override;
  std::string name() const override;

  double c() const { return c_; }
  int l() const { return l_; }

  /// The posterior-confidence ceiling c/(c+1) the principle targets for
  /// exact reconstruction (Inequality 3 of the paper).
  double PosteriorCeiling() const { return c_ / (c_ + 1.0); }

  /// The prior the principle assumes (Equation 2): 1/(|U^s| - l + 2).
  double AssumedPrior(int sensitive_domain_size) const;

 private:
  double c_;
  int l_;
};

/// Smallest number of distinct sensitive values in any group — the `u` of
/// Lemma 1. Returns 0 for an empty grouping.
int MinDistinctSensitive(const Table& table, const QiGroups& groups,
                         int sensitive_attr);

/// Lemma 1's breach floor: with u = MinDistinctSensitive and domain size
/// |U^s|, (c,ℓ)-diversity cannot ensure any (u-l+2)/(|U^s|-l+2)-to-x
/// guarantee for x < 1. Returns that prior-confidence value.
double Lemma1PriorFloor(int u, int l, int sensitive_domain_size);

}  // namespace pgpub
