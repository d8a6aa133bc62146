/// \file ablation_design.cc
/// Ablations over the reproduction's own design choices (DESIGN.md §5):
///
///   A. Phase-2 specialization scoring — balance-aware (default) vs the
///      classic InfoGain/(AnonyLoss+1) greedy: effect on the number of
///      strata, the max G, the Kish effective sample size of the release,
///      and the downstream mining error.
///   B. Mining hardening — per-node randomized-response reconstruction,
///      the chi-square split gate and ESS-based evidence floors, each
///      toggled off: effect on the classification error of the PG tree.
///
/// Environment: SAL_N (rows, default 400000).

#include <algorithm>
#include <cstdio>

#include "bench/bench_report.h"
#include "bench/bench_util.h"
#include "generalize/tds.h"

using namespace pgpub;
using namespace pgpub::bench;

namespace {

struct StrataStats {
  size_t groups = 0;
  size_t max_g = 0;
  double ess = 0.0;
};

StrataStats StatsOf(const Table& table, const GlobalRecoding& recoding) {
  QiGroups groups = ComputeQiGroups(table, recoding);
  StrataStats stats;
  stats.groups = groups.num_groups();
  double sw = 0.0, sw2 = 0.0;
  for (const auto& g : groups.group_rows) {
    stats.max_g = std::max(stats.max_g, g.size());
    const double s = static_cast<double>(g.size());
    sw += s;
    sw2 += s * s;
  }
  stats.ess = sw2 > 0 ? sw * sw / sw2 : 0.0;
  return stats;
}

double MineError(const CensusDataset& census,
                 const PublishedTable& published, const CategoryMap& cats,
                 bool reconstruct, bool chi2_gate, double p) {
  Reconstructor reconstructor(p, cats.Weights());
  TreeOptions options;
  if (reconstruct) options.reconstructor = &reconstructor;
  options.min_leaf_rows =
      std::max<size_t>(20, static_cast<size_t>(1.2 / (p * p)));
  options.min_split_rows = 2 * options.min_leaf_rows;
  options.significance_chi2 = chi2_gate ? 10.0 : 0.0;
  DecisionTree tree =
      DecisionTree::Train(
          TreeDataset::FromPublished(published, cats, census.nominal),
          options)
          .ValueOrDie();
  const std::vector<int> qi = census.table.schema().QiIndices();
  return EvaluateTree(tree, census.table, qi,
                      cats.Map(census.table.column(CensusColumns::kIncome)))
      .error();
}

}  // namespace

int main() {
  const size_t n = SalRows();
  BenchReport report("ablation_design");
  report.SetParam("sal_n", n);
  report.SetParam("k", 6);
  std::printf("generating %zu census rows...\n", n);
  CensusDataset census = GenerateCensus(n, 20080407).ValueOrDie();
  const CategoryMap cats = CategoryMap::PaperIncome(2);
  const std::vector<int> qi = census.table.schema().QiIndices();
  const std::vector<int32_t> labels =
      cats.Map(census.table.column(CensusColumns::kIncome));
  const int k = 6;

  // ---- Ablation A: Phase-2 scoring.
  std::printf("\n=== A. TDS specialization scoring (k = %d) ===\n", k);
  std::printf("%-24s %-8s %-8s %-10s\n", "variant", "groups", "max-G",
              "release-ESS");
  GlobalRecoding balanced, greedy;
  for (bool balance_aware : {true, false}) {
    TdsOptions options;
    options.k = k;
    options.balance_aware = balance_aware;
    TopDownSpecializer tds(census.table, qi, census.TaxonomyPointers(),
                           labels, cats.num_categories(), options);
    GlobalRecoding recoding = tds.Run().ValueOrDie();
    StrataStats stats = StatsOf(census.table, recoding);
    std::printf("%-24s %-8zu %-8zu %-10.1f\n",
                balance_aware ? "balance-aware (default)" : "pure info-gain",
                stats.groups, stats.max_g, stats.ess);
    obs::JsonValue row = obs::JsonValue::Object();
    row.Set("ablation", "tds_scoring");
    row.Set("balance_aware", balance_aware);
    row.Set("groups", stats.groups);
    row.Set("max_g", stats.max_g);
    row.Set("release_ess", stats.ess);
    report.AddResult(std::move(row));
    (balance_aware ? balanced : greedy) = std::move(recoding);
  }

  // ---- Ablation B: mining hardening, swept over retention (the gates
  // bind hardest when reconstruction noise is largest, i.e. small p).
  const double floor = MajorityBaselineError(labels, cats.num_categories());
  std::printf("\n=== B. mining hardening (k = %d; majority floor %.4f) "
              "===\n",
              k, floor);
  std::printf("%-6s %-12s %-12s %-12s %-8s\n", "p", "default",
              "no-chi2-gate", "no-recon", "tuples");
  for (double bp : {0.15, 0.30, 0.45}) {
    PgOptions pg_options;
    pg_options.k = k;
    pg_options.p = bp;
    pg_options.seed = 99;
    pg_options.class_category_starts = cats.starts();
    PgPublisher publisher(pg_options);
    PublishedTable published =
        publisher.Publish(census.table, census.TaxonomyPointers())
            .ValueOrDie();
    const double err_default = MineError(census, published, cats, true, true, bp);
    const double err_no_chi2 = MineError(census, published, cats, true, false, bp);
    const double err_no_recon = MineError(census, published, cats, false, true, bp);
    std::printf("%-6.2f %-12.4f %-12.4f %-12.4f %-8zu\n", bp, err_default,
                err_no_chi2, err_no_recon, published.num_rows());
    obs::JsonValue row = obs::JsonValue::Object();
    row.Set("ablation", "mining_hardening");
    row.Set("p", bp);
    row.Set("error_default", err_default);
    row.Set("error_no_chi2_gate", err_no_chi2);
    row.Set("error_no_reconstruction", err_no_recon);
    row.Set("tuples", published.num_rows());
    report.AddResult(std::move(row));
  }
  std::printf(
      "\nExpected: the balance-aware recoding multiplies the release ESS.\n"
      "The chi2 gate is the main safeguard against noise-fitting; explicit\n"
      "reconstruction matters most at low p (for m = 2 equal-width\n"
      "categories the observed argmax already orders classes correctly,\n"
      "so 'no-recon' is a surprisingly strong baseline there).\n");
  return report.WriteAndLog() ? 0 : 1;
}
