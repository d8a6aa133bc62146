/// \file micro_ops.cc
/// google-benchmark micro-benchmarks of the pipeline stages (DESIGN.md
/// E9/E10): perturbation throughput, QI grouping, TDS and Incognito
/// generalization, stratified sampling, end-to-end publication scaling,
/// attack posterior computation, the ρ₁-bounded knapsack, and the
/// guarantee solvers.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "attack/linking_attack.h"
#include "bench/bench_report.h"
#include "common/math_util.h"
#include "core/pg_publisher.h"
#include "datagen/census.h"
#include "datagen/sal.h"
#include "generalize/incognito.h"
#include "generalize/tds.h"
#include "mining/category.h"
#include "mining/decision_tree.h"
#include "common/parallel/thread_pool.h"
#include "perturb/randomized_response.h"
#include "sample/stratified.h"

namespace pgpub {
namespace {

const CensusDataset& SharedCensus(size_t n) {
  static auto* cache =
      new std::unordered_map<size_t, CensusDataset>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    it = cache->emplace(n, GenerateCensus(n, 1).ValueOrDie()).first;
  }
  return it->second;
}

/// Stream-keyed perturbation (the pipeline's production path since the
/// parallel engine landed): arg0 = rows, arg1 = threads (1 = serial
/// inline). Bit-identical output at every thread count, so the deltas
/// here are pure scheduling cost/win.
void BM_PerturbationStreams(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const CensusDataset& census = SharedCensus(n);
  UniformPerturbation channel(0.3, 50);
  PoolLease lease(threads);
  for (auto _ : state) {
    auto out = channel
                   .PerturbColumnStreams(
                       census.table.column(CensusColumns::kIncome), 42,
                       lease.get())
                   .ValueOrDie();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_PerturbationStreams)
    ->Args({100000, 1})
    ->Args({100000, 2})
    ->Args({100000, 4})
    ->Args({100000, 8});

void BM_QiGrouping(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const CensusDataset& census = SharedCensus(n);
  const std::vector<int> qi = census.table.schema().QiIndices();
  // A mid-granularity recoding: every attribute at half resolution.
  GlobalRecoding recoding;
  recoding.qi_attrs = qi;
  for (int a : qi) {
    const int32_t domain = census.table.domain(a).size();
    AttributeRecoding rec = AttributeRecoding::Single(domain);
    for (int32_t c = 2; c < domain; c += 2) rec.SplitAt(c);
    recoding.per_attr.push_back(std::move(rec));
  }
  for (auto _ : state) {
    QiGroups groups = ComputeQiGroups(census.table, recoding);
    benchmark::DoNotOptimize(groups);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_QiGrouping)->Arg(10000)->Arg(100000);

/// Stratified sampling materializes one SelectRows per QI group; for the
/// small per-group subsets that dominate that phase the cost used to be
/// the deep copy of the schema and every attribute dictionary, not the
/// rows. TableMeta sharing (table/table.h) makes a subset O(rows
/// selected); arg0 = subset size.
void BM_SelectRows(benchmark::State& state) {
  const CensusDataset& census = SharedCensus(100000);
  const size_t subset = static_cast<size_t>(state.range(0));
  std::vector<size_t> rows(subset);
  size_t next = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < subset; ++i) {
      rows[i] = (next + i * 37) % census.table.num_rows();
    }
    next = (next + 1) % census.table.num_rows();
    Table out = census.table.SelectRows(rows);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(subset));
}
BENCHMARK(BM_SelectRows)->Arg(8)->Arg(1024);

void BM_TdsGeneralization(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const CensusDataset& census = SharedCensus(n);
  const std::vector<int> qi = census.table.schema().QiIndices();
  CategoryMap cats = CategoryMap::PaperIncome(2);
  std::vector<int32_t> labels =
      cats.Map(census.table.column(CensusColumns::kIncome));
  for (auto _ : state) {
    TdsOptions options;
    options.k = 6;
    TopDownSpecializer tds(census.table, qi, census.TaxonomyPointers(),
                           labels, 2, options);
    auto recoding = tds.Run().ValueOrDie();
    benchmark::DoNotOptimize(recoding);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_TdsGeneralization)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

/// Incognito's full-domain lattice search, serial, at the paper's k = 10
/// over the first arg0 rows of the seed-42 SAL table (the `incognito_cold`
/// table of perfbench at 100k). Incognito never reads labels, so this is
/// the whole Phase-2 cost of an Incognito publish.
void BM_IncognitoSearch(benchmark::State& state) {
  SalOptions sal_options;
  sal_options.num_rows = static_cast<size_t>(state.range(0));
  sal_options.seed = 42;
  const CensusDataset sal = GenerateSal(sal_options).ValueOrDie();
  const std::vector<int> qi = sal.table.schema().QiIndices();
  IncognitoOptions options;
  options.k = 10;
  for (auto _ : state) {
    auto recoding =
        IncognitoSearch(sal.table, qi, sal.TaxonomyPointers(), options)
            .ValueOrDie();
    benchmark::DoNotOptimize(recoding);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(sal.table.num_rows()));
}
BENCHMARK(BM_IncognitoSearch)->Arg(20000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_StratifiedSampling(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const CensusDataset& census = SharedCensus(n);
  const std::vector<int> qi = census.table.schema().QiIndices();
  TdsOptions options;
  options.k = 6;
  TopDownSpecializer tds(census.table, qi, census.TaxonomyPointers(),
                         census.table.column(CensusColumns::kIncome), 50,
                         options);
  GlobalRecoding recoding = tds.Run().ValueOrDie();
  QiGroups groups = ComputeQiGroups(census.table, recoding);
  Rng rng(3);
  for (auto _ : state) {
    auto sample = StratifiedSample(groups, rng);
    benchmark::DoNotOptimize(sample);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          groups.num_groups());
}
BENCHMARK(BM_StratifiedSampling)->Arg(50000);

void BM_PublishEndToEnd(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const CensusDataset& census = SharedCensus(n);
  for (auto _ : state) {
    PgOptions options;
    options.k = 6;
    options.p = 0.3;
    options.seed = 4;
    PgPublisher publisher(options);
    auto published =
        publisher.Publish(census.table, census.TaxonomyPointers())
            .ValueOrDie();
    benchmark::DoNotOptimize(published);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_PublishEndToEnd)
    ->Arg(10000)
    ->Arg(50000)
    ->Arg(200000)
    ->Unit(benchmark::kMillisecond);

void BM_AttackPosterior(benchmark::State& state) {
  const size_t n = 20000;
  const CensusDataset& census = SharedCensus(n);
  PgOptions options;
  options.k = 6;
  options.p = 0.3;
  options.seed = 5;
  PgPublisher publisher(options);
  static PublishedTable published =
      publisher.Publish(census.table, census.TaxonomyPointers())
          .ValueOrDie();
  Rng rng(6);
  static ExternalDatabase edb =
      ExternalDatabase::FromMicrodata(census.table, 1000, rng);
  LinkingAttack attacker =
      LinkingAttack::Create(&published, &edb).ValueOrDie();
  Adversary adversary;
  adversary.victim_prior = BackgroundKnowledge::Uniform(50).ValueOrDie();
  size_t victim = 0;
  for (auto _ : state) {
    auto result = attacker.Attack(victim, adversary).ValueOrDie();
    benchmark::DoNotOptimize(result);
    victim = (victim + 37) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AttackPosterior);

/// The ρ₁-bounded optimum every breach trial folds
/// (MaxPosteriorGivenPriorBoundExact) at |U^s| = 50, ρ₁ = 0.2, on the
/// default 1e-4 grid: arg0 = 0 for a λ = 0.1 SkewedTowards prior (two grid
/// costs), 1 for a λ = 0.1 RandomSkewed prior (up to 50). The posterior
/// leans on the prior the way a trial's does (h ≈ 0.1).
void BM_MaxPosteriorExact(benchmark::State& state) {
  constexpr int32_t kUs = 50;
  Rng rng(11);
  const BackgroundKnowledge prior =
      state.range(0) == 0
          ? BackgroundKnowledge::SkewedTowards(kUs, 3, 0.1).ValueOrDie()
          : BackgroundKnowledge::RandomSkewed(kUs, 0.1, rng).ValueOrDie();
  std::vector<double> noise(kUs);
  for (double& v : noise) v = rng.UniformDouble();
  NormalizeInPlace(noise);
  std::vector<double> posterior(kUs);
  for (int32_t x = 0; x < kUs; ++x) {
    posterior[x] = 0.9 * prior.pdf[x] + 0.1 * noise[x];
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MaxPosteriorGivenPriorBoundExact(posterior, prior, 0.2).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MaxPosteriorExact)->Arg(0)->Arg(1);

void BM_ReconstructionTreeTraining(benchmark::State& state) {
  const size_t n = 100000;
  const CensusDataset& census = SharedCensus(n);
  CategoryMap cats = CategoryMap::PaperIncome(2);
  PgOptions options;
  options.k = 6;
  options.p = 0.3;
  options.seed = 8;
  options.class_category_starts = cats.starts();
  PgPublisher publisher(options);
  static PublishedTable published =
      publisher.Publish(census.table, census.TaxonomyPointers())
          .ValueOrDie();
  TreeDataset dataset =
      TreeDataset::FromPublished(published, cats, census.nominal);
  Reconstructor reconstructor(0.3, cats.Weights());
  TreeOptions tree_options;
  tree_options.reconstructor = &reconstructor;
  tree_options.significance_chi2 = 10.0;
  for (auto _ : state) {
    auto tree = DecisionTree::Train(dataset, tree_options).ValueOrDie();
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          dataset.num_rows());
}
BENCHMARK(BM_ReconstructionTreeTraining);

void BM_GuaranteeSolver(benchmark::State& state) {
  for (auto _ : state) {
    auto p = MaxRetentionForRho(6, 0.1, 50, 0.2, 0.45).ValueOrDie();
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GuaranteeSolver);

void BM_CensusGeneration(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto census = GenerateCensus(n, 7).ValueOrDie();
    benchmark::DoNotOptimize(census);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_CensusGeneration)->Arg(100000)->Unit(benchmark::kMillisecond);

/// Console reporter that also retains every run so main() can write the
/// BENCH_micro_ops.json artifact after the suite finishes.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) runs_.push_back(run);
    benchmark::ConsoleReporter::ReportRuns(report);
  }
  const std::vector<Run>& runs() const { return runs_; }

 private:
  std::vector<Run> runs_;
};

}  // namespace
}  // namespace pgpub

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  pgpub::bench::BenchReport report("micro_ops");
  pgpub::CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  // Listing the benchmarks, or a filter that matches none, runs nothing;
  // an empty artifact would overwrite a real one in the output directory.
  if (reporter.runs().empty()) {
    std::fprintf(stderr, "micro_ops: no benchmark ran; BENCH_micro_ops.json "
                         "not written\n");
    return 0;
  }

  uint64_t total_iterations = 0;
  for (const auto& run : reporter.runs()) {
    if (run.run_type != pgpub::CollectingReporter::Run::RT_Iteration ||
        run.error_occurred) {
      continue;
    }
    pgpub::obs::JsonValue row = pgpub::obs::JsonValue::Object();
    row.Set("name", run.benchmark_name());
    row.Set("iterations", static_cast<uint64_t>(run.iterations));
    row.Set("real_time_ns",
            static_cast<uint64_t>(run.real_accumulated_time * 1e9));
    row.Set("cpu_time_ns",
            static_cast<uint64_t>(run.cpu_accumulated_time * 1e9));
    auto items = run.counters.find("items_per_second");
    if (items != run.counters.end()) {
      row.Set("items_per_second", static_cast<double>(items->second));
    }
    report.AddResult(std::move(row));
    total_iterations += static_cast<uint64_t>(run.iterations);
  }
  report.SetIterations(total_iterations);
  return report.WriteAndLog() ? 0 : 1;
}
