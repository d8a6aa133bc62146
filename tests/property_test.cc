/// Cross-cutting property and fuzz-style tests: estimator consistency,
/// randomized structural invariants, file round-trips of the full analyst
/// workflow, and attack-model paths not covered by the focused suites.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>

#include "attack/linking_attack.h"
#include "core/pg_publisher.h"
#include "datagen/census.h"
#include "hierarchy/recoding_io.h"
#include "mining/dataset_io.h"
#include "mining/evaluate.h"
#include "common/math_util.h"
#include "perturb/reconstruction.h"

namespace pgpub {
namespace {

// ----------------------------------------------- estimator consistency

TEST(EstimatorConsistencyTest, ReconstructorMatchesChannelInversion) {
  // On noiseless (expected) observations over a uniform channel, the
  // moment reconstructor recovers the true distribution exactly — the
  // answer inverting the channel would give.
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const int m = 2 + static_cast<int>(rng.UniformU64(5));
    const double p = 0.1 + 0.8 * rng.UniformDouble();
    // Random category weights summing to 1 (uniform channel over a domain
    // partitioned into the categories is equivalent to weights).
    std::vector<double> weights(m);
    for (double& w : weights) w = 0.1 + rng.UniformDouble();
    NormalizeInPlace(weights);

    std::vector<double> truth(m);
    for (double& t : truth) t = rng.UniformDouble();
    NormalizeInPlace(truth);
    const double total = 1000.0;

    std::vector<double> observed(m);
    for (int b = 0; b < m; ++b) {
      observed[b] = total * (p * truth[b] + (1 - p) * weights[b]);
    }
    Reconstructor rc(p, weights);
    std::vector<double> est = rc.ReconstructCounts(observed);
    for (int b = 0; b < m; ++b) {
      EXPECT_NEAR(est[b] / total, truth[b], 1e-9)
          << "trial " << trial << " class " << b;
    }
  }
}

// --------------------------------------------------- randomized structure

TEST(FuzzTest, RandomRecodingsPartitionAndRoundTrip) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const int32_t domain = 2 + static_cast<int32_t>(rng.UniformU64(120));
    // Random ascending starts.
    std::vector<int32_t> starts = {0};
    for (int32_t c = 1; c < domain; ++c) {
      if (rng.Bernoulli(0.3)) starts.push_back(c);
    }
    AttributeRecoding rec =
        AttributeRecoding::FromStarts(domain, starts).ValueOrDie();
    // Partition: intervals tile the domain.
    int32_t expect_lo = 0;
    for (int32_t g = 0; g < rec.num_gen_values(); ++g) {
      EXPECT_EQ(rec.GenInterval(g).lo, expect_lo);
      expect_lo = rec.GenInterval(g).hi + 1;
    }
    EXPECT_EQ(expect_lo, domain);
    // Mapping consistency.
    for (int32_t c = 0; c < domain; ++c) {
      EXPECT_TRUE(rec.GenInterval(rec.GenOf(c)).Contains(c));
    }
    // File round trip via a one-attribute global recoding.
    GlobalRecoding recoding;
    recoding.qi_attrs = {0};
    recoding.per_attr = {rec};
    const std::string path =
        ::testing::TempDir() + "/pgpub_fuzz_recoding.txt";
    ASSERT_TRUE(SaveRecoding(recoding, path).ok());
    GlobalRecoding loaded = LoadRecoding(path).ValueOrDie();
    EXPECT_EQ(loaded.per_attr[0].starts(), rec.starts());
    std::remove(path.c_str());
  }
}

TEST(FuzzTest, RandomTaxonomySpecsKeepInvariants) {
  Rng rng(4);
  for (int trial = 0; trial < 30; ++trial) {
    // Random two-level spec: 2-6 groups of 1-8 leaves.
    const int groups = 2 + static_cast<int>(rng.UniformU64(5));
    std::vector<Taxonomy::Spec> children;
    int32_t total = 0;
    for (int g = 0; g < groups; ++g) {
      const int32_t count = 1 + static_cast<int32_t>(rng.UniformU64(8));
      total += count;
      children.push_back(
          Taxonomy::Spec::Group("g" + std::to_string(g), count));
    }
    Taxonomy tax =
        Taxonomy::FromSpec(Taxonomy::Spec::Internal("*", children))
            .ValueOrDie();
    EXPECT_EQ(tax.domain_size(), total);
    // Every leaf reachable; every cut partitions.
    for (int d = 0; d <= tax.height(); ++d) {
      int32_t expect_lo = 0;
      for (int id : tax.CutAtDepth(d)) {
        EXPECT_EQ(tax.node(id).range.lo, expect_lo);
        expect_lo = tax.node(id).range.hi + 1;
      }
      EXPECT_EQ(expect_lo, total);
    }
  }
}

TEST(FuzzTest, PublishedSignatureLookupAgreesWithScan) {
  // Random small census slices: CrucialTuple must agree with a brute-force
  // scan for every microdata member.
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    CensusDataset census =
        GenerateCensus(1500 + 500 * trial, 50 + trial).ValueOrDie();
    PgOptions options;
    options.k = 2 + trial;
    options.p = 0.3;
    options.seed = trial;
    PgPublisher publisher(options);
    PublishedTable published =
        publisher.Publish(census.table, census.TaxonomyPointers())
            .ValueOrDie();
    const auto& recoding = published.recoding();
    for (size_t r = 0; r < census.table.num_rows(); r += 37) {
      std::vector<int32_t> qi_codes;
      for (int a : recoding.qi_attrs) {
        qi_codes.push_back(census.table.value(r, a));
      }
      const size_t fast = published.CrucialTuple(qi_codes).ValueOrDie();
      // Brute force: find the published row whose gen vector matches.
      size_t slow = SIZE_MAX;
      for (size_t pr = 0; pr < published.num_rows(); ++pr) {
        bool match = true;
        for (size_t i = 0; i < qi_codes.size(); ++i) {
          if (published.qi_gen(pr, static_cast<int>(i)) !=
              recoding.per_attr[i].GenOf(qi_codes[i])) {
            match = false;
            break;
          }
        }
        if (match) {
          slow = pr;
          break;
        }
      }
      EXPECT_EQ(fast, slow);
    }
  }
}

// --------------------------------------------------- analyst file workflow

TEST(DatasetIoTest, CodesRoundTripReproducesInMemoryDataset) {
  CensusDataset census = GenerateCensus(8000, 81).ValueOrDie();
  CategoryMap cats = CategoryMap::PaperIncome(2);
  PgOptions options;
  options.k = 4;
  options.p = 0.3;
  options.seed = 82;
  options.class_category_starts = cats.starts();
  PgPublisher publisher(options);
  PublishedTable published =
      publisher.Publish(census.table, census.TaxonomyPointers())
          .ValueOrDie();

  const std::string codes = ::testing::TempDir() + "/pgpub_codes.csv";
  const std::string recfile = ::testing::TempDir() + "/pgpub_rec.txt";
  ASSERT_TRUE(SavePublishedCodes(published, codes).ok());
  ASSERT_TRUE(SaveRecoding(published.recoding(), recfile).ok());

  GlobalRecoding recoding = LoadRecoding(recfile).ValueOrDie();
  TreeDataset from_files =
      LoadPublishedDataset(codes, recoding, cats, census.nominal)
          .ValueOrDie();
  TreeDataset in_memory =
      TreeDataset::FromPublished(published, cats, census.nominal);

  ASSERT_EQ(from_files.num_rows(), in_memory.num_rows());
  EXPECT_EQ(from_files.labels, in_memory.labels);
  EXPECT_EQ(from_files.weights, in_memory.weights);
  ASSERT_EQ(from_files.attributes.size(), in_memory.attributes.size());
  for (size_t i = 0; i < from_files.attributes.size(); ++i) {
    EXPECT_EQ(from_files.attributes[i].code_to_unit,
              in_memory.attributes[i].code_to_unit);
    EXPECT_EQ(from_files.unit_values[i], in_memory.unit_values[i]);
  }

  // Trees trained from either dataset classify identically.
  Reconstructor reconstructor(0.3, cats.Weights());
  TreeOptions tree_options;
  tree_options.reconstructor = &reconstructor;
  DecisionTree a = DecisionTree::Train(from_files, tree_options)
                       .ValueOrDie();
  DecisionTree b = DecisionTree::Train(in_memory, tree_options)
                       .ValueOrDie();
  const std::vector<int> qi = census.table.schema().QiIndices();
  for (size_t r = 0; r < census.table.num_rows(); r += 101) {
    EXPECT_EQ(a.ClassifyRow(census.table, qi, r),
              b.ClassifyRow(census.table, qi, r));
  }
  std::remove(codes.c_str());
  std::remove(recfile.c_str());
}

TEST(DatasetIoTest, RejectsMalformedCodesFiles) {
  GlobalRecoding recoding;
  recoding.qi_attrs = {0};
  recoding.per_attr = {AttributeRecoding::Single(10)};
  CategoryMap cats = CategoryMap::PaperIncome(2);
  const std::string path = ::testing::TempDir() + "/pgpub_bad_codes.csv";
  {
    std::ofstream out(path);
    out << "a#gen,Income#code,G\n0,5,0\n";  // G must be positive
  }
  EXPECT_TRUE(LoadPublishedDataset(path, recoding, cats, {false})
                  .status()
                  .IsOutOfRange());
  {
    std::ofstream out(path);
    out << "a#gen,Income#code,G\n3,5,2\n";  // gen id out of range
  }
  EXPECT_TRUE(LoadPublishedDataset(path, recoding, cats, {false})
                  .status()
                  .IsOutOfRange());
  {
    std::ofstream out(path);
    out << "a#gen,b#gen,Income#code,G\n0,0,5,2\n";  // too wide
  }
  EXPECT_TRUE(LoadPublishedDataset(path, recoding, cats, {false})
                  .status()
                  .IsInvalidArgument());
  std::remove(path.c_str());
}

// --------------------------------------------------- uncovered attack paths

TEST(AttackPathsTest, NonUniformOthersPriorShiftsH) {
  // Equation 19 with a custom X_j pdf: if the adversary believes the
  // unknown candidates are very likely to hold the observed value, each
  // unknown is a stronger rival owner and h must drop.
  CensusDataset census = GenerateCensus(3000, 91).ValueOrDie();
  PgOptions options;
  options.k = 6;
  options.p = 0.3;
  options.seed = 92;
  PgPublisher publisher(options);
  PublishedTable published =
      publisher.Publish(census.table, census.TaxonomyPointers())
          .ValueOrDie();
  Rng rng(93);
  ExternalDatabase edb =
      ExternalDatabase::FromMicrodata(census.table, 0, rng);
  LinkingAttack attacker =
      LinkingAttack::Create(&published, &edb).ValueOrDie();

  Adversary base;
  base.victim_prior = BackgroundKnowledge::Uniform(50).ValueOrDie();
  AttackResult neutral = attacker.Attack(0, base).ValueOrDie();

  Adversary informed = base;
  informed.others_prior =
      BackgroundKnowledge::SkewedTowards(50, neutral.observed_y, 0.9).ValueOrDie().pdf;
  AttackResult shifted = attacker.Attack(0, informed).ValueOrDie();
  EXPECT_LT(shifted.h, neutral.h);

  Adversary dismissive = base;
  // Unknowns almost surely do NOT hold y: they are weak rivals, h rises.
  std::vector<int32_t> just_y = {neutral.observed_y};
  dismissive.others_prior =
      BackgroundKnowledge::Excluding(50, just_y).ValueOrDie().pdf;
  AttackResult raised = attacker.Attack(0, dismissive).ValueOrDie();
  EXPECT_GT(raised.h, neutral.h);
}

TEST(AttackPathsTest, CorruptingExtraneousOnlyIncreasesH) {
  // Knowing candidates are extraneous removes them from Equation 17's
  // denominator entirely — h grows monotonically as more extraneous
  // members of the cell are corrupted.
  CensusDataset census = GenerateCensus(2000, 94).ValueOrDie();
  PgOptions options;
  options.k = 4;
  options.p = 0.3;
  options.seed = 95;
  PgPublisher publisher(options);
  PublishedTable published =
      publisher.Publish(census.table, census.TaxonomyPointers())
          .ValueOrDie();
  Rng rng(96);
  ExternalDatabase edb =
      ExternalDatabase::FromMicrodata(census.table, 2000, rng);
  LinkingAttack attacker =
      LinkingAttack::Create(&published, &edb).ValueOrDie();

  // Find a victim whose cell contains extraneous candidates.
  for (size_t victim = 0; victim < 2000; ++victim) {
    auto cell = published.CrucialTuple(edb.individual(victim).qi_codes);
    if (!cell.ok()) continue;
    std::vector<size_t> extraneous_mates;
    for (size_t other = 2000; other < edb.size(); ++other) {
      auto oc = published.CrucialTuple(edb.individual(other).qi_codes);
      if (oc.ok() && *oc == *cell) extraneous_mates.push_back(other);
    }
    if (extraneous_mates.size() < 2) continue;

    Adversary adv;
    adv.victim_prior = BackgroundKnowledge::Uniform(50).ValueOrDie();
    double prev_h =
        attacker.Attack(victim, adv).ValueOrDie().h;
    for (size_t mate : extraneous_mates) {
      adv.corrupted[mate] = Adversary::kExtraneousMark;
      const double h = attacker.Attack(victim, adv).ValueOrDie().h;
      EXPECT_GE(h, prev_h - 1e-12);
      prev_h = h;
    }
    return;  // one victim suffices
  }
  FAIL() << "no victim with extraneous cell-mates found";
}

}  // namespace
}  // namespace pgpub
