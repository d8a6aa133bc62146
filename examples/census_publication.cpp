/// \file census_publication.cpp
/// Publisher workflow on the census workload (the Section VII setting):
/// pick a privacy target, let the library solve the retention probability,
/// publish, then measure the utility of the release by mining a decision
/// tree that predicts the income category — compared against the paper's
/// *optimistic* (clean subset) and *pessimistic* (fully randomized subset)
/// yardsticks.
///
/// Usage: census_publication [num_rows] [k] [m]

#include <cstdio>
#include <cstdlib>

#include "pgpub.h"

using namespace pgpub;

int main(int argc, char** argv) {
  const size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 60000;
  const int k = argc > 2 ? std::atoi(argv[2]) : 6;
  const int m = argc > 3 ? std::atoi(argv[3]) : 2;

  std::printf("generating %zu census rows...\n", n);
  CensusDataset census = GenerateCensus(n, /*seed=*/20080407).ValueOrDie();
  const Table& microdata = census.table;
  const int sens = CensusColumns::kIncome;
  const CategoryMap categories = CategoryMap::PaperIncome(m);
  const std::vector<int32_t> true_labels =
      categories.Map(microdata.column(sens));

  // ---- Publish: defend 0.1-skewed adversaries with prior <= 0.2 against
  // posteriors above 0.45 (the paper's Table IIIb column for k = 6).
  PgOptions options;
  options.k = k;
  options.target.kind = PrivacyTarget::Kind::kRho;
  options.target.rho1 = 0.2;
  options.target.rho2 = 0.45;
  options.target.lambda = 0.1;
  options.seed = 7;
  options.class_category_starts = categories.starts();
  PgPublisher publisher(options);
  PublishedTable published =
      publisher.Publish(microdata, census.TaxonomyPointers()).ValueOrDie();
  std::printf("published %zu tuples (k = %d, solved p = %.4f)\n",
              published.num_rows(), published.k(), published.retention_p());

  // ---- Mine the release: perturbation-aware decision tree.
  Reconstructor reconstructor(published.retention_p(), categories.Weights());
  TreeOptions tree_options;
  tree_options.reconstructor = &reconstructor;
  // Each published tuple is one perturbed draw: require enough observed
  // tuples per node for the reconstruction to be statistically reliable.
  tree_options.min_leaf_rows = 20;
  tree_options.min_split_rows = 40;
  tree_options.significance_chi2 = 10.0;  // 2x2 at ~0.2% level
  TreeDataset pg_data =
      TreeDataset::FromPublished(published, categories, census.nominal);
  DecisionTree pg_tree = DecisionTree::Train(pg_data, tree_options)
                             .ValueOrDie();
  const std::vector<int> qi = microdata.schema().QiIndices();
  EvalResult pg_eval = EvaluateTree(pg_tree, microdata, qi, true_labels);

  // ---- Yardsticks on a |D|/k uniform subset.
  Rng rng(99);
  std::vector<size_t> subset = UniformRowSample(n, n / k, rng);
  Table sub = microdata.SelectRows(subset);
  std::vector<int32_t> sub_labels = categories.Map(sub.column(sens));

  TreeOptions plain_options;  // no reconstruction
  DecisionTree optimistic =
      DecisionTree::Train(TreeDataset::FromRaw(sub, qi, sub_labels,
                                               categories.num_categories(),
                                               census.nominal),
                          plain_options)
          .ValueOrDie();
  EvalResult opt_eval = EvaluateTree(optimistic, microdata, qi, true_labels);

  UniformPerturbation destroy(0.0, microdata.domain(sens).size());
  std::vector<int32_t> randomized =
      destroy.PerturbColumnStreams(sub.column(sens), /*seed=*/99)
          .ValueOrDie();
  DecisionTree pessimistic =
      DecisionTree::Train(
          TreeDataset::FromRaw(sub, qi, categories.Map(randomized),
                               categories.num_categories(), census.nominal),
          plain_options)
          .ValueOrDie();
  EvalResult pes_eval = EvaluateTree(pessimistic, microdata, qi, true_labels);

  std::printf("\nclassification error on the microdata (m = %d):\n", m);
  std::printf("  optimistic  (clean subset)      : %.4f\n", opt_eval.error());
  std::printf("  PG          (this release)      : %.4f\n", pg_eval.error());
  std::printf("  pessimistic (randomized subset) : %.4f\n", pes_eval.error());
  std::printf("  majority-class floor            : %.4f\n",
              MajorityBaselineError(true_labels,
                                    categories.num_categories()));
  std::printf("\ntree sizes: PG %zu nodes (depth %d), optimistic %zu, "
              "pessimistic %zu\n",
              pg_tree.num_nodes(), pg_tree.depth(), optimistic.num_nodes(),
              pessimistic.num_nodes());
  return 0;
}
