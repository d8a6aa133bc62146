/// Scenario-framework tests: option validation, thread-count determinism,
/// per-cell stream isolation, the pinned seed-42 census golden, the
/// transparent-vs-linking contrast and β-likeness semantics.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "attack/adversaries.h"
#include "attack/publishers.h"
#include "attack/scenario.h"
#include "common/parallel/thread_pool.h"
#include "core/pg_publisher.h"
#include "datagen/census.h"
#include "diversity/beta_likeness.h"

namespace pgpub {
namespace {

/// The pinned cell every golden below attacks: census at 8000 rows,
/// PG at k = 4, p = 0.3, matrix seed 42.
struct PinnedCell {
  CensusDataset census = GenerateCensus(8000, 42).ValueOrDie();
  ScenarioDataset dataset;
  ScenarioOptions options;
  PgScenarioPublisher publisher;

  PinnedCell() {
    dataset.name = "census";
    dataset.microdata = &census.table;
    dataset.taxonomies = census.TaxonomyPointers();
    dataset.sensitive_attr = CensusColumns::kIncome;
    options.harness.num_victims = 150;
    options.harness.corruption_rate = 0.5;
    options.harness.lambda = 0.1;
    options.harness.rho1 = 0.2;
    options.harness.seed = 42;
  }
};

TEST(BreachHarnessOptionsTest, ValidateIsTheOneHomeOfTheRules) {
  BreachHarnessOptions options;
  EXPECT_TRUE(options.Validate().ok());

  options.rho1 = 1.5;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.rho1 = 0.0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.rho1 = 0.2;

  options.corruption_rate = -0.1;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.corruption_rate = 1.0;  // boundary is legal (𝒞 = ℰ - {o})
  EXPECT_TRUE(options.Validate().ok());

  options.lambda = 0.0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.lambda = std::nan("");
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.lambda = 1.0;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(BreachScenarioTest, RunRejectsWhatValidateRejects) {
  PinnedCell cell;
  CorruptionLinkingAdversary adversary;
  ScenarioOptions bad_options = cell.options;
  bad_options.harness.rho1 = 1.5;
  EXPECT_TRUE(
      BreachScenario::Run(cell.publisher, adversary, cell.dataset,
                          bad_options)
          .status()
          .IsInvalidArgument());

  // A dataset with a null or a missing QI taxonomy is an input error for
  // PG and for the conventional generalization alike.
  ScenarioDataset null_taxonomy = cell.dataset;
  null_taxonomy.taxonomies[0] = nullptr;
  ScenarioDataset too_few_taxonomies = cell.dataset;
  too_few_taxonomies.taxonomies.pop_back();
  const GeneralizationScenarioPublisher optimistic;
  for (const ScenarioDataset* dataset : {&null_taxonomy, &too_few_taxonomies}) {
    for (const Publisher* publisher :
         {static_cast<const Publisher*>(&cell.publisher),
          static_cast<const Publisher*>(&optimistic)}) {
      const Status status =
          BreachScenario::Run(*publisher, adversary, *dataset, cell.options)
              .status();
      EXPECT_TRUE(status.IsInvalidArgument())
          << publisher->name() << ": " << status.ToString();
    }
  }
}

TEST(BreachScenarioTest, StatsBitIdenticalAcrossThreadCounts) {
  PinnedCell cell;
  CorruptionLinkingAdversary adversary;
  const BreachStats serial =
      BreachScenario::Run(cell.publisher, adversary, cell.dataset,
                          cell.options)
          .ValueOrDie();
  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    ScenarioOptions pooled = cell.options;
    pooled.harness.pool = &pool;
    const BreachStats parallel =
        BreachScenario::Run(cell.publisher, adversary, cell.dataset, pooled)
            .ValueOrDie();
    EXPECT_EQ(serial.attacks, parallel.attacks) << "threads=" << threads;
    // Exact double equality: the trial-order fold makes even the float
    // accumulators bit-identical.
    EXPECT_EQ(serial.max_growth, parallel.max_growth);
    EXPECT_EQ(serial.mean_growth, parallel.mean_growth);
    EXPECT_EQ(serial.max_posterior_rho1, parallel.max_posterior_rho1);
    EXPECT_EQ(serial.max_h, parallel.max_h);
    EXPECT_EQ(serial.delta_breaches, parallel.delta_breaches);
    EXPECT_EQ(serial.rho_breaches, parallel.rho_breaches);
    EXPECT_EQ(serial.breached_attacks, parallel.breached_attacks);
  }
}

TEST(BreachScenarioTest, CellSeedsAreStreamIsolated) {
  // Distinct cells of one matrix get distinct counter-based streams...
  std::set<uint64_t> seeds;
  for (size_t cell = 0; cell < 64; ++cell) {
    seeds.insert(ScenarioCellSeed(42, cell));
  }
  EXPECT_EQ(seeds.size(), 64u);

  // ...and a cell's stats depend only on its own seed: re-running cell 0
  // reproduces it exactly, while cell 1 sees different randomness.
  PinnedCell cell;
  CorruptionLinkingAdversary adversary;
  auto run_cell = [&](size_t index) {
    ScenarioOptions options = cell.options;
    options.harness.seed = ScenarioCellSeed(42, index);
    return BreachScenario::Run(cell.publisher, adversary, cell.dataset,
                               options)
        .ValueOrDie();
  };
  const BreachStats first = run_cell(0);
  const BreachStats again = run_cell(0);
  EXPECT_EQ(first.max_growth, again.max_growth);
  EXPECT_EQ(first.mean_growth, again.mean_growth);
  const BreachStats other = run_cell(1);
  EXPECT_NE(first.mean_growth, other.mean_growth);
}

TEST(BreachScenarioTest, PinnedSeed42CensusCorruptionGolden) {
  // Golden for the (PG, corruption-linking, census) cell at matrix seed
  // 42 — the cell the CI bench baseline pins. The theorems hold: zero
  // breaches of either declared bound.
  PinnedCell cell;
  CorruptionLinkingAdversary adversary;
  const BreachStats stats =
      BreachScenario::Run(cell.publisher, adversary, cell.dataset,
                          cell.options)
          .ValueOrDie();
  EXPECT_EQ(stats.publisher, "pg");
  EXPECT_EQ(stats.adversary, "corruption-linking");
  EXPECT_EQ(stats.dataset, "census");
  EXPECT_EQ(stats.attacks, 150u);
  EXPECT_EQ(stats.delta_breaches, 0u);
  EXPECT_EQ(stats.rho_breaches, 0u);
  EXPECT_EQ(stats.breached_attacks, 0u);
  EXPECT_EQ(stats.point_mass_disclosures, 0u);
  // Empirical aggregates, pinned at the stream-keyed draw sequence.
  EXPECT_NEAR(stats.max_growth, 0.051330798479087475, 1e-12);
  EXPECT_NEAR(stats.mean_growth, 0.0069888425187818546, 1e-12);
  EXPECT_NEAR(stats.max_posterior_rho1, 0.23792969659346633, 1e-12);
  EXPECT_NEAR(stats.max_h, 0.11932101847229157, 1e-12);
  // Declared bounds: Inequality 20 / Theorems 2-3 at p=0.3, k=4, λ=0.1.
  EXPECT_NEAR(stats.h_top, 0.51162790697674421, 1e-12);
  EXPECT_NEAR(stats.delta_bound, 0.31395348837209303, 1e-12);
  EXPECT_NEAR(stats.rho2_bound, 0.53186675047140175, 1e-12);
}

TEST(BreachScenarioTest, TransparentAdversaryBeatsLinkingOnPinnedCell) {
  // The headline contrast (Section VI of DESIGN.md §16): against the same
  // seed-42 census release, the corruption-linking adversary never
  // violates the theorems, while the transparent adversary — replaying
  // the publication algorithm to invert the perturbation channel —
  // strictly exceeds the averaged Δ bound.
  PinnedCell cell;
  Result<Release> release =
      cell.publisher.Publish(cell.dataset, cell.options, nullptr);
  ASSERT_TRUE(release.ok()) << release.status().ToString();

  // Replay only gains on a victim whose own row sourced their cell's
  // published tuple (~1/group-size per trial), so this comparison runs
  // more trials than the golden to pin a cell with actual breaches.
  ScenarioOptions options = cell.options;
  options.harness.num_victims = 600;

  CorruptionLinkingAdversary linking;
  TransparentReplayAdversary transparent;
  const BreachStats base =
      BreachScenario::RunOnRelease(*release, linking, cell.dataset, options)
          .ValueOrDie();
  const BreachStats replay =
      BreachScenario::RunOnRelease(*release, transparent, cell.dataset,
                                   options)
          .ValueOrDie();
  EXPECT_EQ(base.breached_attacks, 0u);
  EXPECT_FALSE(base.BoundViolated());
  EXPECT_GT(replay.delta_breaches, 0u);
  EXPECT_TRUE(replay.BoundViolated());
  EXPECT_GT(replay.BreachRate(), base.BreachRate());
  // Pinned: 6 of 600 replays resolved the victim's own draw with the
  // perturbation retained, giving growth ≈ 0.614 > Δ ≈ 0.314.
  EXPECT_EQ(replay.delta_breaches, 6u);
  EXPECT_NEAR(replay.max_growth, 0.61363636363636354, 1e-12);
  EXPECT_GT(replay.max_growth, replay.delta_bound);
}

TEST(BreachScenarioTest, TransparentAdversaryRequiresProvenance) {
  // The replay attack inverts per-row perturbation draws; a release
  // published without provenance cannot support it and the measurement
  // must fail closed rather than fake an answer.
  PinnedCell cell;
  PgOptions options;
  options.k = 4;
  options.p = 0.3;
  options.seed = 7;
  ASSERT_FALSE(options.keep_provenance);
  PgPublisher publisher(options);
  PublishedTable published =
      publisher.Publish(cell.census.table, cell.census.TaxonomyPointers())
          .ValueOrDie();
  FixedPgRelease fixed(&published);
  TransparentReplayAdversary transparent;
  EXPECT_TRUE(BreachScenario::Run(fixed, transparent, cell.dataset,
                                  cell.options)
                  .status()
                  .IsFailedPrecondition());
}

// ----------------------------------------------------------- β-likeness

TEST(BetaLikenessTest, ValidatesItsInputs) {
  EXPECT_TRUE(BetaLikeness::Create(0.0, {10, 10}).status().IsInvalidArgument());
  EXPECT_TRUE(BetaLikeness::Create(-1.0, {10, 10}).status().IsInvalidArgument());
  EXPECT_TRUE(BetaLikeness::Create(0.5, {}).status().IsInvalidArgument());
  EXPECT_TRUE(BetaLikeness::Create(0.5, {0, 0}).status().IsInvalidArgument());
  EXPECT_TRUE(BetaLikeness::Create(0.5, {10, 10}).ok());
}

TEST(BetaLikenessTest, CrossMultipliedFrequencyCheck) {
  // Global distribution 50/50; β = 0.5 caps any group frequency at 0.75.
  BetaLikeness constraint = BetaLikeness::Create(0.5, {50, 50}).ValueOrDie();
  EXPECT_TRUE(constraint.Satisfied({5, 5}));    // exactly global
  EXPECT_TRUE(constraint.Satisfied({7, 3}));    // 0.7 <= 0.75
  EXPECT_FALSE(constraint.Satisfied({8, 2}));   // 0.8 > 0.75
  EXPECT_FALSE(constraint.Satisfied({10, 0}));  // point mass
  // The full-table group always satisfies (root of any TDS run).
  EXPECT_TRUE(constraint.Satisfied({50, 50}));
  EXPECT_DOUBLE_EQ(constraint.GlobalFrequency(0), 0.5);
  EXPECT_DOUBLE_EQ(constraint.GlobalFrequency(7), 0.0);
}

TEST(BetaLikenessTest, FailsClosedOnForeignValues) {
  // A group containing a sensitive code with zero global frequency can
  // never satisfy f_g <= (1+β)·f = 0.
  BetaLikeness constraint = BetaLikeness::Create(2.0, {50, 50}).ValueOrDie();
  EXPECT_FALSE(constraint.Satisfied({4, 4, 2}));
}

}  // namespace
}  // namespace pgpub
