#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/pg_publisher.h"
#include "datagen/census.h"
#include "mining/evaluate.h"
#include "perturb/randomized_response.h"
#include "sample/stratified.h"

namespace pgpub {
namespace bench {

/// Dataset size for the census-based ablations (ablation_design,
/// breach_empirical). Override with SAL_N.
inline size_t SalRows() {
  const char* env = std::getenv("SAL_N");
  if (env != nullptr) {
    const long long v = std::atoll(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 400000;
}

struct UtilityPoint {
  double pg_error = 0.0;
  double optimistic_error = 0.0;
  double pessimistic_error = 0.0;
};

/// Runs the Section VII utility experiment (Figures 2–3) once: PG at
/// (p, k) mined with the reconstruction tree, plus the two yardsticks on a
/// |D|/k uniform subset.
inline UtilityPoint RunUtilityPoint(const CensusDataset& census, double p,
                                    int k, int m, uint64_t seed) {
  const Table& microdata = census.table;
  const int sens = CensusColumns::kIncome;
  const CategoryMap cats = CategoryMap::PaperIncome(m);
  const std::vector<int32_t> truth = cats.Map(microdata.column(sens));
  const std::vector<int> qi = microdata.schema().QiIndices();

  UtilityPoint point;

  // ---- PG.
  PgOptions options;
  options.k = k;
  options.p = p;
  options.seed = seed;
  options.class_category_starts = cats.starts();
  PgPublisher publisher(options);
  PublishedTable published =
      publisher.Publish(microdata, census.TaxonomyPointers()).ValueOrDie();
  Reconstructor reconstructor(p, cats.Weights());
  TreeOptions pg_tree_options;
  pg_tree_options.reconstructor = &reconstructor;
  // Scale the observed-row floors with the reconstruction noise (variance
  // grows as 1/p^2).
  pg_tree_options.min_leaf_rows =
      std::max<size_t>(20, static_cast<size_t>(1.2 / (p * p)));
  pg_tree_options.min_split_rows = 2 * pg_tree_options.min_leaf_rows;
  pg_tree_options.significance_chi2 = 10.0;
  DecisionTree pg_tree =
      DecisionTree::Train(
          TreeDataset::FromPublished(published, cats, census.nominal),
          pg_tree_options)
          .ValueOrDie();
  point.pg_error = EvaluateTree(pg_tree, microdata, qi, truth).error();

  // ---- Yardsticks on a clean / fully randomized |D|/k subset.
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<size_t> subset =
      UniformRowSample(microdata.num_rows(), microdata.num_rows() / k, rng);
  Table sub = microdata.SelectRows(subset);
  TreeOptions plain;
  DecisionTree optimistic =
      DecisionTree::Train(
          TreeDataset::FromRaw(sub, qi, cats.Map(sub.column(sens)),
                               cats.num_categories(), census.nominal),
          plain)
          .ValueOrDie();
  point.optimistic_error =
      EvaluateTree(optimistic, microdata, qi, truth).error();

  UniformPerturbation destroy(0.0, microdata.domain(sens).size());
  std::vector<int32_t> randomized =
      destroy.PerturbColumnStreams(sub.column(sens), seed).ValueOrDie();
  DecisionTree pessimistic =
      DecisionTree::Train(
          TreeDataset::FromRaw(sub, qi, cats.Map(randomized),
                               cats.num_categories(), census.nominal),
          plain)
          .ValueOrDie();
  point.pessimistic_error =
      EvaluateTree(pessimistic, microdata, qi, truth).error();
  return point;
}

/// Runs RunUtilityPoint over `runs` seeds and reports the per-series
/// median — robust to the occasional reconstruction-noise outlier, which
/// is also how one would plot a representative single run.
[[nodiscard]] inline Result<UtilityPoint> AveragedUtilityPoint(
    const CensusDataset& census, double p, int k, int m, int runs) {
  if (runs < 1) {
    return Status::InvalidArgument("AveragedUtilityPoint needs runs >= 1");
  }
  std::vector<double> pg, opt, pes;
  for (int r = 0; r < runs; ++r) {
    UtilityPoint point =
        RunUtilityPoint(census, p, k, m, 0xbe9c5 + 31 * r + k + 1000 * m);
    pg.push_back(point.pg_error);
    opt.push_back(point.optimistic_error);
    pes.push_back(point.pessimistic_error);
  }
  auto median = [](std::vector<double>& v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  return UtilityPoint{median(pg), median(opt), median(pes)};
}

}  // namespace bench
}  // namespace pgpub
