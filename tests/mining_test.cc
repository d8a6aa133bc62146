#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "core/pg_publisher.h"
#include "datagen/census.h"
#include "mining/category.h"
#include "mining/decision_tree.h"
#include "mining/evaluate.h"
#include "perturb/randomized_response.h"

namespace pgpub {
namespace {

// ------------------------------------------------------------- CategoryMap

TEST(CategoryMapTest, PaperIncomeConfigurations) {
  CategoryMap m2 = CategoryMap::PaperIncome(2);
  EXPECT_EQ(m2.num_categories(), 2);
  EXPECT_EQ(m2.CategoryOf(0), 0);
  EXPECT_EQ(m2.CategoryOf(24), 0);
  EXPECT_EQ(m2.CategoryOf(25), 1);
  EXPECT_EQ(m2.CategoryOf(49), 1);

  CategoryMap m3 = CategoryMap::PaperIncome(3);
  EXPECT_EQ(m3.num_categories(), 3);
  EXPECT_EQ(m3.CategoryOf(24), 0);
  EXPECT_EQ(m3.CategoryOf(25), 1);
  EXPECT_EQ(m3.CategoryOf(36), 1);
  EXPECT_EQ(m3.CategoryOf(37), 2);
}

TEST(CategoryMapTest, WeightsSumToOne) {
  CategoryMap m3 = CategoryMap::PaperIncome(3);
  std::vector<double> w = m3.Weights();
  EXPECT_NEAR(w[0], 25.0 / 50, 1e-12);
  EXPECT_NEAR(w[1], 12.0 / 50, 1e-12);
  EXPECT_NEAR(w[2], 13.0 / 50, 1e-12);
}

TEST(CategoryMapTest, MapColumn) {
  CategoryMap m2 = CategoryMap::PaperIncome(2);
  EXPECT_EQ(m2.Map({0, 30, 24, 25}),
            (std::vector<int32_t>{0, 1, 0, 1}));
}

// ----------------------------------------------------------- DecisionTree

/// Synthetic learnable dataset: label = (a > threshold) xor-free signal
/// plus a nominal attribute carrying a category flip.
TreeDataset MakeLearnable(size_t n, uint64_t seed, double noise) {
  Rng rng(seed);
  TreeDataset ds;
  ds.num_classes = 2;
  TreeAttribute ordered;
  ordered.name = "x";
  ordered.nominal = false;
  ordered.num_units = 20;
  ordered.code_to_unit.resize(20);
  for (int32_t c = 0; c < 20; ++c) ordered.code_to_unit[c] = c;
  TreeAttribute nominal;
  nominal.name = "g";
  nominal.nominal = true;
  nominal.num_units = 3;
  nominal.code_to_unit = {0, 1, 2};
  ds.attributes = {ordered, nominal};
  ds.unit_values.resize(2);
  for (size_t i = 0; i < n; ++i) {
    int32_t x = static_cast<int32_t>(rng.UniformU64(20));
    int32_t g = static_cast<int32_t>(rng.UniformU64(3));
    int32_t label = x >= 10 ? 1 : 0;
    if (g == 2) label = 1 - label;  // nominal flip
    if (rng.Bernoulli(noise)) label = 1 - label;
    ds.unit_values[0].push_back(x);
    ds.unit_values[1].push_back(g);
    ds.labels.push_back(label);
    ds.weights.push_back(1.0);
  }
  return ds;
}

double TrainingError(const DecisionTree& tree, const TreeDataset& ds) {
  size_t wrong = 0;
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    std::vector<int32_t> codes = {ds.unit_values[0][r], ds.unit_values[1][r]};
    if (tree.Classify(codes) != ds.labels[r]) ++wrong;
  }
  return wrong / static_cast<double>(ds.num_rows());
}

TEST(DecisionTreeTest, LearnsThresholdPlusNominalInteraction) {
  TreeDataset ds = MakeLearnable(4000, 1, 0.0);
  TreeOptions options;
  options.min_split_weight = 10;
  options.min_leaf_weight = 5;
  DecisionTree tree = DecisionTree::Train(ds, options).ValueOrDie();
  EXPECT_LT(TrainingError(tree, ds), 0.01);
  EXPECT_GE(tree.depth(), 2);
}

TEST(DecisionTreeTest, RobustToLabelNoise) {
  TreeDataset ds = MakeLearnable(4000, 2, 0.1);
  TreeOptions options;
  DecisionTree tree = DecisionTree::Train(ds, options).ValueOrDie();
  EXPECT_LT(TrainingError(tree, ds), 0.15);
}

TEST(DecisionTreeTest, EntropyCriterionWorksToo) {
  TreeDataset ds = MakeLearnable(3000, 3, 0.0);
  TreeOptions options;
  options.criterion = SplitCriterion::kEntropy;
  DecisionTree tree = DecisionTree::Train(ds, options).ValueOrDie();
  EXPECT_LT(TrainingError(tree, ds), 0.02);
}

TEST(DecisionTreeTest, MaxDepthCapsTree) {
  TreeDataset ds = MakeLearnable(3000, 4, 0.0);
  TreeOptions options;
  options.max_depth = 1;
  DecisionTree tree = DecisionTree::Train(ds, options).ValueOrDie();
  EXPECT_LE(tree.depth(), 1);
  EXPECT_LE(tree.num_nodes(), 3u);
}

TEST(DecisionTreeTest, MinLeafRowsBlocksTinySplits) {
  TreeDataset ds = MakeLearnable(200, 5, 0.0);
  TreeOptions options;
  options.min_leaf_rows = 150;  // no split can satisfy both children
  DecisionTree tree = DecisionTree::Train(ds, options).ValueOrDie();
  EXPECT_EQ(tree.num_nodes(), 1u);
}

TEST(DecisionTreeTest, WeightsShiftTheMajority) {
  // Two rows, conflicting labels; the heavier row wins the leaf.
  TreeDataset ds;
  ds.num_classes = 2;
  TreeAttribute a;
  a.name = "x";
  a.nominal = false;
  a.num_units = 1;
  a.code_to_unit = {0};
  ds.attributes = {a};
  ds.unit_values = {{0, 0}};
  ds.labels = {0, 1};
  ds.weights = {1.0, 5.0};
  TreeOptions options;
  DecisionTree tree = DecisionTree::Train(ds, options).ValueOrDie();
  EXPECT_EQ(tree.Classify({0}), 1);
}

TEST(DecisionTreeTest, RejectsIllFormedDatasets) {
  TreeOptions options;
  TreeDataset empty;
  empty.num_classes = 2;
  EXPECT_FALSE(DecisionTree::Train(empty, options).ok());

  TreeDataset ds = MakeLearnable(10, 6, 0.0);
  ds.weights.pop_back();
  EXPECT_FALSE(DecisionTree::Train(ds, options).ok());

  TreeDataset one_class = MakeLearnable(10, 7, 0.0);
  one_class.num_classes = 1;
  EXPECT_FALSE(DecisionTree::Train(one_class, options).ok());
}

TEST(DecisionTreeTest, SignificanceGatePrunesNoise) {
  // Pure-noise labels: with the chi-square gate the tree must not split.
  Rng rng(8);
  TreeDataset ds = MakeLearnable(2000, 8, 0.0);
  for (auto& l : ds.labels) l = rng.Bernoulli(0.5) ? 1 : 0;
  TreeOptions options;
  options.significance_chi2 = 6.63;
  DecisionTree tree = DecisionTree::Train(ds, options).ValueOrDie();
  EXPECT_LE(tree.num_nodes(), 3u);
  // Without the gate, noise fitting is allowed (and expected).
  options.significance_chi2 = 0.0;
  options.min_gain = 1e-9;
  DecisionTree noisy = DecisionTree::Train(ds, options).ValueOrDie();
  EXPECT_GE(noisy.num_nodes(), tree.num_nodes());
}

// ----------------------------------------- Reconstruction-aware training

TEST(ReconstructingTreeTest, RecoversSignalFromPerturbedLabels) {
  // True labels follow a threshold; the observed labels went through a
  // p=0.3 uniform channel over 2 categories of a 50-value domain.
  const double p = 0.3;
  const int32_t us = 50;
  CategoryMap cats = CategoryMap::PaperIncome(2);
  UniformPerturbation channel(p, us);
  Rng rng(9);

  TreeDataset ds;
  ds.num_classes = 2;
  TreeAttribute a;
  a.name = "x";
  a.nominal = false;
  a.num_units = 10;
  a.code_to_unit.resize(10);
  for (int32_t c = 0; c < 10; ++c) a.code_to_unit[c] = c;
  ds.attributes = {a};
  ds.unit_values.resize(1);
  std::vector<int32_t> true_labels;
  const size_t n = 20000;
  for (size_t i = 0; i < n; ++i) {
    int32_t x = static_cast<int32_t>(rng.UniformU64(10));
    // True income: low codes for x < 5, high otherwise.
    int32_t income = x < 5 ? static_cast<int32_t>(rng.UniformU64(25))
                           : 25 + static_cast<int32_t>(rng.UniformU64(25));
    int32_t observed = channel.Perturb(income, rng);
    ds.unit_values[0].push_back(x);
    ds.labels.push_back(cats.CategoryOf(observed));
    ds.weights.push_back(1.0);
    true_labels.push_back(cats.CategoryOf(income));
  }

  Reconstructor reconstructor(p, cats.Weights());
  TreeOptions options;
  options.reconstructor = &reconstructor;
  options.min_leaf_rows = 50;
  DecisionTree tree = DecisionTree::Train(ds, options).ValueOrDie();

  // Evaluate against the TRUE labels.
  size_t wrong = 0;
  for (size_t r = 0; r < n; ++r) {
    if (tree.Classify({ds.unit_values[0][r]}) != true_labels[r]) ++wrong;
  }
  EXPECT_LT(wrong / static_cast<double>(n), 0.02);
}

TEST(ReconstructingTreeTest, MismatchedCategoriesRejected) {
  TreeDataset ds = MakeLearnable(100, 10, 0.0);
  Reconstructor reconstructor(0.3, {0.3, 0.3, 0.4});  // 3 cats, 2 classes
  TreeOptions options;
  options.reconstructor = &reconstructor;
  EXPECT_TRUE(
      DecisionTree::Train(ds, options).status().IsInvalidArgument());
}

// ------------------------------------------------- Published-data training

TEST(TreeDatasetTest, FromPublishedUnitsFollowRecoding) {
  CensusDataset census = GenerateCensus(4000, 11).ValueOrDie();
  PgOptions options;
  options.k = 4;
  options.p = 0.5;
  options.seed = 12;
  PgPublisher publisher(options);
  PublishedTable published =
      publisher.Publish(census.table, census.TaxonomyPointers())
          .ValueOrDie();
  CategoryMap cats = CategoryMap::PaperIncome(2);
  TreeDataset ds =
      TreeDataset::FromPublished(published, cats, census.nominal);
  ASSERT_EQ(ds.num_rows(), published.num_rows());
  ASSERT_EQ(ds.attributes.size(), published.recoding().qi_attrs.size());
  for (size_t i = 0; i < ds.attributes.size(); ++i) {
    const AttributeRecoding& rec = published.recoding().per_attr[i];
    EXPECT_EQ(ds.attributes[i].num_units, rec.num_gen_values());
    // code_to_unit mirrors the recoding map.
    for (int32_t c = 0; c < rec.domain_size(); ++c) {
      EXPECT_EQ(ds.attributes[i].code_to_unit[c], rec.GenOf(c));
    }
  }
  // Weights are the G column.
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    EXPECT_DOUBLE_EQ(ds.weights[r],
                     static_cast<double>(published.group_size(r)));
  }
}

TEST(TreeDatasetTest, PublishedTreeClassifiesRawRows) {
  CensusDataset census = GenerateCensus(20000, 13).ValueOrDie();
  PgOptions options;
  options.k = 4;
  options.p = 0.35;
  options.seed = 14;
  CategoryMap cats = CategoryMap::PaperIncome(2);
  options.class_category_starts = cats.starts();
  PgPublisher publisher(options);
  PublishedTable published =
      publisher.Publish(census.table, census.TaxonomyPointers())
          .ValueOrDie();
  Reconstructor reconstructor(0.35, cats.Weights());
  TreeOptions tree_options;
  tree_options.reconstructor = &reconstructor;
  tree_options.min_leaf_rows = 20;
  tree_options.min_split_rows = 40;
  tree_options.significance_chi2 = 10.0;
  DecisionTree tree =
      DecisionTree::Train(
          TreeDataset::FromPublished(published, cats, census.nominal),
          tree_options)
          .ValueOrDie();
  const std::vector<int> qi = census.table.schema().QiIndices();
  std::vector<int32_t> truth =
      cats.Map(census.table.column(CensusColumns::kIncome));
  EvalResult eval = EvaluateTree(tree, census.table, qi, truth);
  // Far better than chance and better than the majority floor.
  EXPECT_LT(eval.error(), MajorityBaselineError(truth, 2));
}

// ------------------------------------------------------------ Evaluation

TEST(EvaluateTest, MajorityBaseline) {
  EXPECT_NEAR(MajorityBaselineError({0, 0, 0, 1}, 2), 0.25, 1e-12);
  EXPECT_NEAR(MajorityBaselineError({0, 1, 2}, 3), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(MajorityBaselineError({}, 2), 0.0);
}

TEST(EvaluateTest, PerfectTreeScoresOne) {
  CensusDataset census = GenerateCensus(500, 15).ValueOrDie();
  // Train on the full raw table with the true labels: training error
  // should be small; accuracy accessor consistency.
  CategoryMap cats = CategoryMap::PaperIncome(2);
  std::vector<int32_t> truth =
      cats.Map(census.table.column(CensusColumns::kIncome));
  const std::vector<int> qi = census.table.schema().QiIndices();
  TreeOptions options;
  options.min_split_weight = 4;
  options.min_leaf_weight = 1;
  options.max_depth = 20;
  DecisionTree tree =
      DecisionTree::Train(
          TreeDataset::FromRaw(census.table, qi, truth, 2, census.nominal),
          options)
          .ValueOrDie();
  EvalResult eval = EvaluateTree(tree, census.table, qi, truth);
  EXPECT_EQ(eval.total, 500u);
  EXPECT_EQ(eval.correct + (eval.total - eval.correct), eval.total);
  EXPECT_GT(eval.accuracy(), 0.85);
  EXPECT_NEAR(eval.accuracy() + eval.error(), 1.0, 1e-12);
}

}  // namespace
}  // namespace pgpub
