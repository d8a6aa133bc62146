#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "attack/linking_attack.h"
#include "core/pg_publisher.h"
#include "datagen/census.h"
#include "datagen/hospital.h"
#include "hierarchy/taxonomy.h"
#include "common/math_util.h"
#include "perturb/randomized_response.h"

namespace pgpub {
namespace {

// ---------------------------------------------------- BackgroundKnowledge

TEST(BackgroundKnowledgeTest, UniformPdf) {
  BackgroundKnowledge bk = BackgroundKnowledge::Uniform(4).ValueOrDie();
  for (double v : bk.pdf) EXPECT_DOUBLE_EQ(v, 0.25);
  EXPECT_DOUBLE_EQ(bk.MaxMass(), 0.25);
}

TEST(BackgroundKnowledgeTest, SkewedTowardsPutsLambdaOnValue) {
  BackgroundKnowledge bk = BackgroundKnowledge::SkewedTowards(5, 2, 0.4).ValueOrDie();
  EXPECT_DOUBLE_EQ(bk.pdf[2], 0.4);
  EXPECT_DOUBLE_EQ(bk.pdf[0], 0.15);
  double total = 0;
  for (double v : bk.pdf) total += v;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(BackgroundKnowledgeTest, ExcludingZerosOutValues) {
  BackgroundKnowledge bk = BackgroundKnowledge::Excluding(5, {1, 3}).ValueOrDie();
  EXPECT_DOUBLE_EQ(bk.pdf[1], 0.0);
  EXPECT_DOUBLE_EQ(bk.pdf[3], 0.0);
  EXPECT_NEAR(bk.pdf[0], 1.0 / 3.0, 1e-12);
}

TEST(BackgroundKnowledgeTest, RandomSkewedRespectsLambda) {
  Rng rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    BackgroundKnowledge bk = BackgroundKnowledge::RandomSkewed(20, 0.1, rng).ValueOrDie();
    EXPECT_LE(bk.MaxMass(), 0.1 + 1e-6);
    double total = 0;
    for (double v : bk.pdf) {
      EXPECT_GE(v, 0.0);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(BackgroundKnowledgeTest, ConfidenceSumsPredicate) {
  BackgroundKnowledge bk = BackgroundKnowledge::Uniform(4).ValueOrDie();
  std::vector<bool> q = {true, false, true, false};
  EXPECT_DOUBLE_EQ(bk.Confidence(q).ValueOrDie(), 0.5);
}

TEST(BackgroundKnowledgeTest, FactoriesRejectBadArguments) {
  EXPECT_TRUE(BackgroundKnowledge::Uniform(0).status().IsInvalidArgument());
  EXPECT_TRUE(BackgroundKnowledge::Uniform(-3).status().IsInvalidArgument());
  // Skew target outside the domain.
  EXPECT_TRUE(
      BackgroundKnowledge::SkewedTowards(5, 7, 0.4).status().IsOutOfRange());
  EXPECT_TRUE(
      BackgroundKnowledge::SkewedTowards(5, -1, 0.4).status().IsOutOfRange());
  // Infeasible lambda: below 1/|U^s| or above 1.
  EXPECT_TRUE(
      BackgroundKnowledge::SkewedTowards(5, 2, 0.1).status()
          .IsInvalidArgument());
  EXPECT_TRUE(
      BackgroundKnowledge::SkewedTowards(5, 2, 1.5).status()
          .IsInvalidArgument());
  // Excluding every value leaves no feasible pdf.
  EXPECT_TRUE(BackgroundKnowledge::Excluding(2, {0, 1})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      BackgroundKnowledge::Excluding(2, {4}).status().IsOutOfRange());
  Rng rng(3);
  EXPECT_TRUE(
      BackgroundKnowledge::RandomSkewed(10, 0.01, rng).status()
          .IsInvalidArgument());
}

TEST(BackgroundKnowledgeTest, ConfidenceRejectsWrongPredicateWidth) {
  BackgroundKnowledge bk = BackgroundKnowledge::Uniform(4).ValueOrDie();
  EXPECT_TRUE(
      bk.Confidence({true, false}).status().IsInvalidArgument());
}

TEST(AttackResultTest, AccessorsRejectDomainMismatch) {
  AttackResult r;
  r.posterior = {0.5, 0.5};
  BackgroundKnowledge prior = BackgroundKnowledge::Uniform(3).ValueOrDie();
  EXPECT_TRUE(MaxGrowth(r.posterior, prior).status().IsInvalidArgument());
  EXPECT_TRUE(MaxPosteriorGivenPriorBoundExact(r.posterior, prior, 0.5)
                  .status()
                  .IsInvalidArgument());
  BackgroundKnowledge matched = BackgroundKnowledge::Uniform(2).ValueOrDie();
  EXPECT_TRUE(MaxPosteriorGivenPriorBoundExact(r.posterior, matched, 0.5, 0.0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Confidence(r.posterior, {true}).status().IsInvalidArgument());
}

TEST(LinkingAttackTest, CreateRejectsNullReferents) {
  EXPECT_TRUE(
      LinkingAttack::Create(nullptr, nullptr).status().IsInvalidArgument());
}

/// A one-row release over `num_qi` numeric QI attributes of `domain_size`
/// codes each, recoded by identity, plus a sensitive attribute.
PublishedTable OneRowIdentityRelease(int num_qi, int32_t domain_size) {
  Schema schema;
  std::vector<AttributeDomain> domains;
  GlobalRecoding recoding;
  for (int a = 0; a < num_qi; ++a) {
    schema.AddAttribute({"q" + std::to_string(a), AttributeType::kNumeric,
                         AttributeRole::kQuasiIdentifier});
    domains.push_back(AttributeDomain::Numeric(0, domain_size - 1));
    recoding.qi_attrs.push_back(a);
    recoding.per_attr.push_back(AttributeRecoding::Identity(domain_size));
  }
  schema.AddAttribute(
      {"s", AttributeType::kNumeric, AttributeRole::kSensitive});
  domains.push_back(AttributeDomain::Numeric(0, 1));
  return PublishedTable(schema, domains, recoding, /*sensitive_attr=*/num_qi,
                        /*retention_p=*/0.3, /*k=*/1,
                        {std::vector<int32_t>(num_qi, 0)}, {0}, {1});
}

ExternalDatabase OneIndividualEdb(int num_qi, std::vector<int32_t> codes) {
  ExternalDatabase edb;
  std::vector<int> qi_attrs(num_qi);
  for (int a = 0; a < num_qi; ++a) qi_attrs[a] = a;
  edb.SetQiAttrs(qi_attrs);
  edb.Add({"o", std::move(codes), /*microdata_row=*/0});
  return edb;
}

TEST(LinkingAttackTest, CreateRejectsUnkeyableReleasesAndIndividuals) {
  // Five attributes of 2^16 cells each: 2^80 signatures overflow uint64.
  const PublishedTable wide = OneRowIdentityRelease(5, 1 << 16);
  ASSERT_EQ(wide.recoding().NumCells(), UINT64_MAX);
  const ExternalDatabase wide_edb = OneIndividualEdb(5, {0, 0, 0, 0, 0});
  const Status overflow = LinkingAttack::Create(&wide, &wide_edb).status();
  EXPECT_TRUE(overflow.IsInvalidArgument()) << overflow.ToString();

  // A keyable release: its one individual links, but a QI code outside
  // the release's domain is rejected.
  const PublishedTable narrow = OneRowIdentityRelease(2, 4);
  const ExternalDatabase fits = OneIndividualEdb(2, {0, 0});
  LinkingAttack attacker = LinkingAttack::Create(&narrow, &fits).ValueOrDie();
  EXPECT_EQ(attacker.CrucialRow(0).ValueOrDie(), 0u);
  ASSERT_EQ(attacker.Candidates(0).size(), 1u);
  EXPECT_EQ(attacker.Candidates(0)[0], 0u);
  EXPECT_EQ(attacker.Members(), std::vector<size_t>{0});
  for (std::vector<int32_t> codes :
       {std::vector<int32_t>{0, 4}, std::vector<int32_t>{-1, 0}}) {
    ExternalDatabase bad = OneIndividualEdb(2, codes);
    const Status status = LinkingAttack::Create(&narrow, &bad).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  }
}

// --------------------------------------------------------- Hospital attack

struct HospitalAttackFixture {
  HospitalDataset hospital = MakeHospitalDataset().ValueOrDie();
  PublishedTable published;
  size_t ellie = SIZE_MAX, debbie = SIZE_MAX, emily = SIZE_MAX,
         bob = SIZE_MAX;

  HospitalAttackFixture() {
    PgOptions options;
    options.s = 0.5;
    options.p = 0.25;
    options.seed = 2008;
    options.keep_provenance = true;
    PgPublisher publisher(options);
    published =
        publisher.Publish(hospital.table, hospital.TaxonomyPointers())
            .ValueOrDie();
    const auto& edb = hospital.voter_list;
    for (size_t i = 0; i < edb.size(); ++i) {
      if (edb.individual(i).id == "Ellie") ellie = i;
      if (edb.individual(i).id == "Debbie") debbie = i;
      if (edb.individual(i).id == "Emily") emily = i;
      if (edb.individual(i).id == "Bob") bob = i;
    }
  }
};

TEST(LinkingAttackTest, Example1HandComputedPosterior) {
  HospitalAttackFixture f;
  const int sens = HospitalColumns::kDisease;
  const int32_t us = f.hospital.table.domain(sens).size();  // 7

  Adversary adv;
  adv.victim_prior = BackgroundKnowledge::Uniform(us).ValueOrDie();
  adv.corrupted[f.debbie] = f.hospital.table.value(
      f.hospital.voter_list.individual(f.debbie).microdata_row, sens);
  adv.corrupted[f.emily] = Adversary::kExtraneousMark;

  LinkingAttack attacker =
      LinkingAttack::Create(&f.published, &f.hospital.voter_list).ValueOrDie();
  AttackResult r = attacker.Attack(f.ellie, adv).ValueOrDie();

  // Candidates besides Ellie in her cell: Debbie and Emily.
  EXPECT_EQ(r.e, 2u);
  EXPECT_EQ(r.alpha, 2u);
  EXPECT_EQ(r.beta, 1u);
  EXPECT_EQ(r.g_value, 2u);

  // Hand computation (Equations 14-18): with a uniform prior,
  //   P[o owns t, y] = (1/G)(p/|U^s| + (1-p)/|U^s|) = 1/(G |U^s|).
  //   P[Debbie owns t, y] = P[x_D -> y]/G, x_D = pneumonia != y.
  // No unknown candidates remain (e == alpha), so
  //   h = (1/(2*7)) / (1/(2*7) + (0.75/7)/2).
  const double p = 0.25;
  const double num = 1.0 / (2 * us);
  const double den = num + ((1 - p) / us) / 2.0;
  EXPECT_NEAR(r.h, num / den, 1e-12);

  // Posterior pdf sums to 1.
  double total = 0;
  for (double v : r.posterior) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(LinkingAttackTest, Theorem1NoBreachWhenYNotInQ) {
  HospitalAttackFixture f;
  const int sens = HospitalColumns::kDisease;
  const int32_t us = f.hospital.table.domain(sens).size();

  Adversary adv;
  adv.victim_prior = BackgroundKnowledge::Uniform(us).ValueOrDie();
  LinkingAttack attacker =
      LinkingAttack::Create(&f.published, &f.hospital.voter_list).ValueOrDie();
  AttackResult r = attacker.Attack(f.ellie, adv).ValueOrDie();

  // Any Q excluding the observed y must not gain confidence (Theorem 1).
  std::vector<bool> q(us, true);
  q[r.observed_y] = false;
  EXPECT_LE(Confidence(r.posterior, q).ValueOrDie(), adv.victim_prior.Confidence(q).ValueOrDie() + 1e-12);
  // ... and single-value predicates excluding y likewise.
  for (int32_t x = 0; x < us; ++x) {
    if (x == r.observed_y) continue;
    std::vector<bool> single(us, false);
    single[x] = true;
    EXPECT_LE(Confidence(r.posterior, single).ValueOrDie(),
              adv.victim_prior.Confidence(single).ValueOrDie() + 1e-12);
  }
}

TEST(LinkingAttackTest, RejectsBadVictims) {
  HospitalAttackFixture f;
  const int32_t us = f.hospital.table.domain(HospitalColumns::kDisease)
                         .size();
  LinkingAttack attacker =
      LinkingAttack::Create(&f.published, &f.hospital.voter_list).ValueOrDie();
  Adversary adv;
  adv.victim_prior = BackgroundKnowledge::Uniform(us).ValueOrDie();
  // Emily is extraneous.
  EXPECT_TRUE(attacker.Attack(f.emily, adv).status().IsInvalidArgument());
  // Corrupted victim.
  adv.corrupted[f.bob] = 0;
  EXPECT_TRUE(attacker.Attack(f.bob, adv).status().IsInvalidArgument());
  // Out of range.
  EXPECT_TRUE(attacker
                  .Attack(f.hospital.voter_list.size() + 5, adv)
                  .status()
                  .IsInvalidArgument());
  // Wrong pdf width.
  Adversary bad;
  bad.victim_prior = BackgroundKnowledge::Uniform(us + 1).ValueOrDie();
  EXPECT_TRUE(attacker.Attack(f.ellie, bad).status().IsInvalidArgument());
}

TEST(LinkingAttackTest, CorruptionRaisesOwnershipProbability) {
  HospitalAttackFixture f;
  const int32_t us =
      f.hospital.table.domain(HospitalColumns::kDisease).size();
  LinkingAttack attacker =
      LinkingAttack::Create(&f.published, &f.hospital.voter_list).ValueOrDie();

  Adversary without;
  without.victim_prior = BackgroundKnowledge::Uniform(us).ValueOrDie();
  AttackResult r0 = attacker.Attack(f.ellie, without).ValueOrDie();

  Adversary with = without;
  with.corrupted[f.emily] = Adversary::kExtraneousMark;
  AttackResult r1 = attacker.Attack(f.ellie, with).ValueOrDie();

  // Learning that Emily is extraneous removes a candidate: h grows.
  EXPECT_GT(r1.h, r0.h - 1e-12);
}

TEST(LinkingAttackTest, IndexMatchesBruteForceCrucialTupleScan) {
  CensusDataset census = GenerateCensus(2000, 31).ValueOrDie();
  PgOptions options;
  options.k = 4;
  options.p = 0.3;
  options.seed = 7;
  PublishedTable published =
      PgPublisher(options)
          .Publish(census.table, census.TaxonomyPointers())
          .ValueOrDie();
  Rng rng(32);
  ExternalDatabase edb =
      ExternalDatabase::FromMicrodata(census.table, 1000, rng);
  LinkingAttack attacker =
      LinkingAttack::Create(&published, &edb).ValueOrDie();

  // Oracle: step A1 by a direct CrucialTuple call per individual, and
  // step A2 by scanning all of ℰ for the same crucial tuple.
  std::vector<Result<size_t>> crucial;
  for (size_t i = 0; i < edb.size(); ++i) {
    crucial.push_back(published.CrucialTuple(edb.individual(i).qi_codes));
  }
  size_t shared_cells = 0;
  for (size_t i = 0; i < edb.size(); ++i) {
    const Result<size_t> row = attacker.CrucialRow(i);
    if (!crucial[i].ok()) {
      EXPECT_TRUE(row.status().IsNotFound()) << row.status().ToString();
      EXPECT_TRUE(edb.individual(i).extraneous()) << i;
      continue;
    }
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    EXPECT_EQ(*row, *crucial[i]) << i;
    std::vector<uint32_t> scan;
    for (size_t j = 0; j < edb.size(); ++j) {
      if (crucial[j].ok() && *crucial[j] == *crucial[i]) {
        scan.push_back(static_cast<uint32_t>(j));
      }
    }
    const std::span<const uint32_t> candidates = attacker.Candidates(*row);
    ASSERT_EQ(candidates.size(), scan.size()) << i;
    for (size_t c = 0; c < scan.size(); ++c) {
      EXPECT_EQ(candidates[c], scan[c]) << i << " candidate " << c;
    }
    if (scan.size() > 1) ++shared_cells;
  }
  EXPECT_GT(shared_cells, 0u);
  EXPECT_TRUE(attacker.CrucialRow(edb.size()).status().IsInvalidArgument());
}

// ----------------------------------------------- h <= h_top property sweep

// GoogleTest prints a parameter without a printer as its raw bytes, so
// the struct must have no padding: a 64-bit k fills the slot an int would
// leave before `lambda`.
struct HSweepParam {
  double p;
  std::int64_t k;
  double lambda;
};

class HBoundSweep : public ::testing::TestWithParam<HSweepParam> {};

TEST_P(HBoundSweep, OwnershipProbabilityNeverExceedsHTop) {
  const HSweepParam param = GetParam();
  const int k = static_cast<int>(param.k);
  CensusDataset census = GenerateCensus(4000, 17).ValueOrDie();
  PgOptions options;
  options.k = k;
  options.p = param.p;
  options.seed = 5;
  PgPublisher publisher(options);
  PublishedTable published =
      publisher.Publish(census.table, census.TaxonomyPointers())
          .ValueOrDie();
  Rng rng(23);
  ExternalDatabase edb =
      ExternalDatabase::FromMicrodata(census.table, 400, rng);
  LinkingAttack attacker =
      LinkingAttack::Create(&published, &edb).ValueOrDie();

  PgParams bound_params{param.p, k, param.lambda, 50};
  const double h_top = HTop(bound_params);

  int attacks = 0;
  for (size_t victim = 0; victim < census.table.num_rows() && attacks < 60;
       victim += 97) {
    Adversary adv;
    adv.victim_prior = BackgroundKnowledge::RandomSkewed(
        50, std::max(param.lambda, 1.0 / 50), rng).ValueOrDie();
    // Random corruption of half the external database individuals that
    // share the victim's cell (approximated by corrupting random people —
    // only cell-mates matter to the attack).
    for (int j = 0; j < 40; ++j) {
      size_t target = rng.UniformU64(edb.size());
      if (target == victim || adv.corrupted.count(target)) continue;
      const Individual& ind = edb.individual(target);
      adv.corrupted[target] =
          ind.extraneous()
              ? Adversary::kExtraneousMark
              : census.table.value(ind.microdata_row, CensusColumns::kIncome);
    }
    auto result = attacker.Attack(victim, adv);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->h, h_top + 1e-9)
        << "p=" << param.p << " k=" << param.k;
    ++attacks;
  }
  EXPECT_GT(attacks, 10);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HBoundSweep,
    ::testing::Values(HSweepParam{0.15, 2, 0.1}, HSweepParam{0.3, 2, 0.1},
                      HSweepParam{0.3, 6, 0.1}, HSweepParam{0.3, 6, 0.3},
                      HSweepParam{0.45, 10, 0.1},
                      HSweepParam{0.45, 4, 0.5}));

// ---------------------------------------------- Monte-Carlo h verification

TEST(LinkingAttackTest, OwnershipProbabilityMatchesMonteCarlo) {
  // Tiny universe: one QI cell with 3 people (G = 3 after grouping), no
  // extraneous. We simulate Phase 1+3 many times, condition on the
  // observed y, and compare the empirical ownership frequency with h.
  const int32_t us = 4;
  const double p = 0.4;
  Schema schema;
  schema.AddAttribute(
      {"q", AttributeType::kNumeric, AttributeRole::kQuasiIdentifier});
  schema.AddAttribute(
      {"s", AttributeType::kNumeric, AttributeRole::kSensitive});
  std::vector<AttributeDomain> domains = {AttributeDomain::Numeric(0, 0),
                                          AttributeDomain::Numeric(0, 3)};
  // Victim is row 0 with sensitive value 2; others hold 0 and 1.
  Table t = Table::Create(schema, domains, {{0, 0, 0}, {2, 0, 1}})
                .ValueOrDie();

  // Analytic h from one published release.
  PgOptions options;
  options.k = 3;
  options.p = p;
  options.seed = 77;
  options.keep_provenance = true;
  PgPublisher publisher(options);
  const Taxonomy q = Taxonomy::Flat(1, "*");
  PublishedTable published = publisher.Publish(t, {&q}).ValueOrDie();
  Rng edb_rng(1);
  ExternalDatabase edb = ExternalDatabase::FromMicrodata(t, 0, edb_rng);
  LinkingAttack attacker =
      LinkingAttack::Create(&published, &edb).ValueOrDie();
  Adversary adv;
  adv.victim_prior = BackgroundKnowledge::Uniform(us).ValueOrDie();
  AttackResult r = attacker.Attack(0, adv).ValueOrDie();
  const int32_t y = r.observed_y;

  // Monte Carlo over fresh releases: how often does row 0 own the
  // published tuple when its observed value is y? The adversary's model
  // treats all three sensitive values as uniform unknowns, so the
  // simulation must marginalize them too.
  Rng rng(12345);
  UniformPerturbation channel(p, us);
  size_t own = 0, seen = 0;
  for (int trial = 0; trial < 400000; ++trial) {
    // True values drawn from the adversary's uniform model.
    int32_t values[3];
    for (auto& value : values) {
      value = static_cast<int32_t>(rng.UniformU64(us));
    }
    const size_t sampled = rng.UniformU64(3);
    const int32_t observed = channel.Perturb(values[sampled], rng);
    if (observed != y) continue;
    ++seen;
    if (sampled == 0) ++own;
  }
  ASSERT_GT(seen, 10000u);
  EXPECT_NEAR(own / static_cast<double>(seen), r.h, 0.01);
}

// --------------------------------------- Posterior pdf empirical validation

TEST(LinkingAttackTest, PosteriorMatchesConditionalSimulation) {
  // Same tiny universe; now the adversary has a skewed prior over the
  // victim's value and we verify P[X = x | y] empirically.
  const int32_t us = 4;
  const double p = 0.35;
  Schema schema;
  schema.AddAttribute(
      {"q", AttributeType::kNumeric, AttributeRole::kQuasiIdentifier});
  schema.AddAttribute(
      {"s", AttributeType::kNumeric, AttributeRole::kSensitive});
  std::vector<AttributeDomain> domains = {AttributeDomain::Numeric(0, 0),
                                          AttributeDomain::Numeric(0, 3)};
  Table t = Table::Create(schema, domains, {{0, 0}, {1, 3}}).ValueOrDie();

  PgOptions options;
  options.k = 2;
  options.p = p;
  options.seed = 9;
  PgPublisher publisher(options);
  const Taxonomy q = Taxonomy::Flat(1, "*");
  PublishedTable published = publisher.Publish(t, {&q}).ValueOrDie();
  Rng edb_rng(2);
  ExternalDatabase edb = ExternalDatabase::FromMicrodata(t, 0, edb_rng);
  LinkingAttack attacker =
      LinkingAttack::Create(&published, &edb).ValueOrDie();

  Adversary adv;
  adv.victim_prior.pdf = {0.4, 0.3, 0.2, 0.1};
  AttackResult r = attacker.Attack(0, adv).ValueOrDie();
  const int32_t y = r.observed_y;

  // Simulate the adversary's generative model: victim value ~ prior,
  // other candidate's value ~ uniform, sample one of the two tuples,
  // perturb, condition on observing y.
  Rng rng(777);
  UniformPerturbation channel(p, us);
  std::vector<double> counts(us, 0.0);
  double seen = 0;
  for (int trial = 0; trial < 600000; ++trial) {
    const int32_t victim_value =
        static_cast<int32_t>(rng.Discrete(adv.victim_prior.pdf));
    const int32_t other_value = static_cast<int32_t>(rng.UniformU64(us));
    const bool sampled_victim = rng.Bernoulli(0.5);
    const int32_t observed =
        channel.Perturb(sampled_victim ? victim_value : other_value, rng);
    if (observed != y) continue;
    seen += 1.0;
    counts[victim_value] += 1.0;
  }
  ASSERT_GT(seen, 20000.0);
  for (int32_t x = 0; x < us; ++x) {
    EXPECT_NEAR(counts[x] / seen, r.posterior[x], 0.01) << "x=" << x;
  }
}

// -------------------------------------------- Generalization attack basics

TEST(GeneralizationAttackTest, UniformPriorGivesGroupFrequencies) {
  Schema schema;
  schema.AddAttribute(
      {"q", AttributeType::kNumeric, AttributeRole::kQuasiIdentifier});
  schema.AddAttribute(
      {"s", AttributeType::kNumeric, AttributeRole::kSensitive});
  std::vector<AttributeDomain> domains = {AttributeDomain::Numeric(0, 0),
                                          AttributeDomain::Numeric(0, 2)};
  Table t = Table::Create(schema, domains, {{0, 0, 0, 0}, {0, 0, 1, 2}})
                .ValueOrDie();
  std::vector<uint32_t> group = {0, 1, 2, 3};
  BackgroundKnowledge prior = BackgroundKnowledge::Uniform(3).ValueOrDie();
  std::vector<double> post =
      GeneralizationAttackPosterior(t, group, 1, 0, {}, prior).ValueOrDie();
  EXPECT_NEAR(post[0], 0.5, 1e-12);
  EXPECT_NEAR(post[1], 0.25, 1e-12);
  EXPECT_NEAR(post[2], 0.25, 1e-12);
}

TEST(GeneralizationAttackTest, FullCorruptionPinpointsVictim) {
  // Lemma 2: corrupt everyone but the victim -> point mass on the truth.
  Schema schema;
  schema.AddAttribute(
      {"q", AttributeType::kNumeric, AttributeRole::kQuasiIdentifier});
  schema.AddAttribute(
      {"s", AttributeType::kNumeric, AttributeRole::kSensitive});
  std::vector<AttributeDomain> domains = {AttributeDomain::Numeric(0, 0),
                                          AttributeDomain::Numeric(0, 2)};
  Table t = Table::Create(schema, domains, {{0, 0, 0}, {2, 0, 1}})
                .ValueOrDie();
  std::vector<uint32_t> group = {0, 1, 2};
  BackgroundKnowledge prior = BackgroundKnowledge::Uniform(3).ValueOrDie();
  std::vector<double> post =
      GeneralizationAttackPosterior(t, group, 1, 0, {1, 2}, prior).ValueOrDie();
  EXPECT_NEAR(post[2], 1.0, 1e-12);
  EXPECT_NEAR(post[0], 0.0, 1e-12);
}

TEST(GeneralizationAttackTest, Lemma1ExclusionPrior) {
  // Section III-A narrative: a group whose non-excluded values all satisfy
  // Q lets the adversary reach posterior confidence 1 on Q.
  Schema schema;
  schema.AddAttribute(
      {"q", AttributeType::kNumeric, AttributeRole::kQuasiIdentifier});
  schema.AddAttribute(
      {"s", AttributeType::kNumeric, AttributeRole::kSensitive});
  // Sensitive domain of 6; group holds values {0,1,2} plus excluded 5.
  std::vector<AttributeDomain> domains = {AttributeDomain::Numeric(0, 0),
                                          AttributeDomain::Numeric(0, 5)};
  Table t = Table::Create(schema, domains,
                          {{0, 0, 0, 0}, {0, 1, 2, 5}})
                .ValueOrDie();
  std::vector<uint32_t> group = {0, 1, 2, 3};
  BackgroundKnowledge prior = BackgroundKnowledge::Excluding(6, {5}).ValueOrDie();
  std::vector<double> post =
      GeneralizationAttackPosterior(t, group, 1, 0, {}, prior).ValueOrDie();
  // Q = {0,1,2} ("respiratory"): prior 3/5, posterior 1.
  double post_q = post[0] + post[1] + post[2];
  EXPECT_NEAR(post_q, 1.0, 1e-12);
  double prior_q = prior.pdf[0] + prior.pdf[1] + prior.pdf[2];
  EXPECT_NEAR(prior_q, 0.6, 1e-12);
}

// ----------------------------------------------------- MaxGrowth machinery

TEST(AttackResultTest, MaxGrowthAndExactPredicate) {
  AttackResult r;
  r.posterior = {0.5, 0.3, 0.1, 0.1};
  BackgroundKnowledge prior;
  prior.pdf = {0.25, 0.25, 0.25, 0.25};
  EXPECT_NEAR(MaxGrowth(r.posterior, prior).ValueOrDie(), 0.3, 1e-12);
  // With rho1 = 0.5 the best Q takes the two grown values {0,1}.
  EXPECT_NEAR(
      MaxPosteriorGivenPriorBoundExact(r.posterior, prior, 0.5).ValueOrDie(),
      0.8, 1e-12);
  // With rho1 = 0.25 only one value fits.
  EXPECT_NEAR(
      MaxPosteriorGivenPriorBoundExact(r.posterior, prior, 0.25).ValueOrDie(),
      0.5, 1e-12);
}

/// A random pdf over `m` values; `ties` > 0 draws every mass from that
/// many levels, so equal posteriors and equal grid costs are common.
std::vector<double> RandomPdf(int m, int ties, Rng& rng) {
  std::vector<double> pdf(m);
  for (double& v : pdf) {
    v = ties > 0 ? static_cast<double>(1 + rng.UniformU64(ties))
                 : rng.UniformDouble();
  }
  NormalizeInPlace(pdf);
  return pdf;
}

TEST(AttackResultTest, ExactKnapsackMatchesBruteForce) {
  // Oracle: every subset of the grid-rounded costs within the budget, its
  // posteriors summed in index order; the knapsack must return the
  // largest such sum exactly.
  Rng rng(77);
  for (int trial = 0; trial < 120; ++trial) {
    const int m = 1 + static_cast<int>(rng.UniformU64(16));
    const int ties = static_cast<int>(rng.UniformU64(4));
    AttackResult r;
    r.posterior = RandomPdf(m, ties, rng);
    BackgroundKnowledge prior;
    prior.pdf = RandomPdf(m, ties, rng);
    if (trial % 5 == 0) prior.pdf[rng.UniformU64(m)] = 0.0;  // a free value
    for (double resolution : {1e-4, 0.05}) {
      for (double rho1 : {0.0, 0.1, 0.3, 0.6, 1.0}) {
        std::vector<int64_t> cost(m);
        for (int i = 0; i < m; ++i) {
          cost[i] = static_cast<int64_t>(prior.pdf[i] / resolution);
        }
        const int64_t budget = static_cast<int64_t>(rho1 / resolution);
        double oracle = 0.0;
        for (uint32_t subset = 0; subset < (1u << m); ++subset) {
          int64_t used = 0;
          double sum = 0.0;
          for (int i = 0; i < m; ++i) {
            if ((subset >> i & 1u) == 0) continue;
            used += cost[i];
            sum += r.posterior[i];
          }
          if (used <= budget) oracle = std::max(oracle, sum);
        }
        EXPECT_EQ(MaxPosteriorGivenPriorBoundExact(r.posterior, prior, rho1,
                                                   resolution)
                      .ValueOrDie(),
                  oracle)
            << "trial " << trial << " m " << m << " rho1 " << rho1
            << " resolution " << resolution;
      }
    }
  }
}

/// The dense 0/1 knapsack over every grid cell of the budget, as the
/// attack layer ran it before the frontier: the reference the frontier
/// must equal bit for bit.
double DenseGridKnapsack(const std::vector<double>& posterior,
                         const std::vector<double>& prior, double rho1,
                         double resolution) {
  const size_t m = posterior.size();
  std::vector<int64_t> cost(m);
  for (size_t i = 0; i < m; ++i) {
    cost[i] = static_cast<int64_t>(prior[i] / resolution);
  }
  const int64_t budget = static_cast<int64_t>(rho1 / resolution);
  std::vector<double> best(budget + 1, 0.0);
  for (size_t i = 0; i < m; ++i) {
    if (cost[i] > budget) continue;
    for (int64_t b = budget; b >= cost[i]; --b) {
      best[b] = std::max(best[b], best[b - cost[i]] + posterior[i]);
    }
  }
  return best[budget];
}

TEST(AttackResultTest, ExactKnapsackMatchesDenseGridDp) {
  constexpr int kUs = 50;
  Rng rng(2008);
  for (int trial = 0; trial < 24; ++trial) {
    const int target = static_cast<int>(rng.UniformU64(kUs));
    std::vector<int32_t> excluded;
    for (int x = 0; x < kUs; ++x) {
      if (x != target && rng.Bernoulli(0.4)) excluded.push_back(x);
    }
    const std::vector<BackgroundKnowledge> priors = {
        BackgroundKnowledge::Uniform(kUs).ValueOrDie(),
        BackgroundKnowledge::SkewedTowards(kUs, target, 0.1).ValueOrDie(),
        BackgroundKnowledge::SkewedTowards(kUs, target, 0.35).ValueOrDie(),
        BackgroundKnowledge::Excluding(kUs, excluded).ValueOrDie(),
        BackgroundKnowledge::RandomSkewed(kUs, 0.1, rng).ValueOrDie()};
    // Odd trials draw tie-heavy posteriors.
    const std::vector<double> posterior =
        RandomPdf(kUs, trial % 2 == 1 ? 3 : 0, rng);
    for (size_t k = 0; k < priors.size(); ++k) {
      for (double rho1 : {0.02, 0.1, 0.2, 0.35, 0.5}) {
        const double frontier =
            MaxPosteriorGivenPriorBoundExact(posterior, priors[k], rho1)
                .ValueOrDie();
        const double dense =
            DenseGridKnapsack(posterior, priors[k].pdf, rho1, 1e-4);
        EXPECT_EQ(frontier, dense)
            << "trial " << trial << " prior " << k << " rho1 " << rho1;
        EXPECT_EQ(std::signbit(frontier), std::signbit(dense));
      }
    }
  }
}

TEST(AttackResultTest, ExactKnapsackRejectsMalformedInputs) {
  const std::vector<double> posterior = {0.6, 0.4};
  BackgroundKnowledge prior;
  prior.pdf = {0.5, 0.5};
  EXPECT_TRUE(MaxPosteriorGivenPriorBoundExact(posterior, prior, -0.1)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(MaxPosteriorGivenPriorBoundExact(posterior, prior, 1e300)
                  .status()
                  .IsInvalidArgument());
  BackgroundKnowledge negative;
  negative.pdf = {-0.5, 1.5};
  EXPECT_TRUE(MaxPosteriorGivenPriorBoundExact(posterior, negative, 0.5)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      MaxPosteriorGivenPriorBoundExact({std::nan(""), 0.4}, prior, 0.5)
          .status()
          .IsInvalidArgument());
}

TEST(AttackResultTest, ExactKnapsackSolvesKnownInstance) {
  // posterior (.5,.3,.2), prior (.5,.25,.25), budget .5: greedy-by-post
  // takes {0} = .5; the optimum is {1,2} = .5 as well; budget .75 lets
  // {0,1} = .8 beat {1,2}.
  AttackResult r;
  r.posterior = {0.5, 0.3, 0.2};
  BackgroundKnowledge prior;
  prior.pdf = {0.5, 0.25, 0.25};
  EXPECT_NEAR(MaxPosteriorGivenPriorBoundExact(r.posterior, prior, 0.5).ValueOrDie(), 0.5, 1e-9);
  EXPECT_NEAR(MaxPosteriorGivenPriorBoundExact(r.posterior, prior, 0.75).ValueOrDie(), 0.8, 1e-9);
  EXPECT_NEAR(MaxPosteriorGivenPriorBoundExact(r.posterior, prior, 1.0).ValueOrDie(), 1.0, 1e-9);
  EXPECT_NEAR(MaxPosteriorGivenPriorBoundExact(r.posterior, prior, 0.2).ValueOrDie(), 0.0, 1e-9);
}

TEST(AttackResultTest, ZeroPriorValuesAreFree) {
  AttackResult r;
  r.posterior = {0.6, 0.4};
  BackgroundKnowledge prior;
  prior.pdf = {0.0, 1.0};
  EXPECT_NEAR(
      MaxPosteriorGivenPriorBoundExact(r.posterior, prior, 0.0).ValueOrDie(),
      0.6, 1e-12);
}

}  // namespace
}  // namespace pgpub
