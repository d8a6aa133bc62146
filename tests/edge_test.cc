/// Edge-case coverage across modules: boundary domains, degenerate
/// parameters, and rarely-hit branches.

#include <gtest/gtest.h>

#include "attack/linking_attack.h"
#include "core/pg_publisher.h"
#include "core/verify.h"
#include "datagen/hospital.h"
#include "generalize/metrics.h"
#include "generalize/tds.h"
#include "hierarchy/taxonomy.h"
#include "mining/evaluate.h"

namespace pgpub {
namespace {

// ----------------------------------------------------- tiny/extreme tables

TEST(EdgeTest, PublishWholeTableAsOneGroup) {
  // k = n: the only valid recoding is full suppression — one published
  // tuple with G = n.
  HospitalDataset hospital = MakeHospitalDataset().ValueOrDie();
  PgOptions options;
  options.k = static_cast<int>(hospital.table.num_rows());
  options.p = 0.5;
  PgPublisher publisher(options);
  PublishedTable published =
      publisher.Publish(hospital.table, hospital.TaxonomyPointers())
          .ValueOrDie();
  ASSERT_EQ(published.num_rows(), 1u);
  EXPECT_EQ(published.group_size(0), hospital.table.num_rows());
  EXPECT_TRUE(VerifyPublication(hospital.table, published).ok());
}

TEST(EdgeTest, KEqualsOnePublishesPerCell) {
  // k = 1 (s = 1): every fully specialized non-empty cell publishes.
  HospitalDataset hospital = MakeHospitalDataset().ValueOrDie();
  PgOptions options;
  options.k = 1;
  options.p = 1.0;  // no perturbation either
  PgPublisher publisher(options);
  PublishedTable published =
      publisher.Publish(hospital.table, hospital.TaxonomyPointers())
          .ValueOrDie();
  // All 8 patients have distinct QI vectors: 8 singleton cells.
  EXPECT_EQ(published.num_rows(), 8u);
  for (size_t r = 0; r < published.num_rows(); ++r) {
    EXPECT_EQ(published.group_size(r), 1u);
  }
  EXPECT_TRUE(VerifyPublication(hospital.table, published).ok());
}

TEST(EdgeTest, PZeroPublishesPureNoise) {
  HospitalDataset hospital = MakeHospitalDataset().ValueOrDie();
  PgOptions options;
  options.k = 2;
  options.p = 0.0;
  options.seed = 3;
  options.keep_provenance = true;
  PgPublisher publisher(options);
  PublishedTable published =
      publisher.Publish(hospital.table, hospital.TaxonomyPointers())
          .ValueOrDie();
  // With p = 0 the guarantees are perfect: MinDelta = 0.
  PgParams params{0.0, 2, 0.2,
                  hospital.table.domain(HospitalColumns::kDisease).size()};
  EXPECT_NEAR(MinDelta(params), 0.0, 1e-12);
  EXPECT_TRUE(VerifyPublication(hospital.table, published).ok());
}

TEST(EdgeTest, SingleQiAttributeTable) {
  Schema schema;
  schema.AddAttribute(
      {"q", AttributeType::kNumeric, AttributeRole::kQuasiIdentifier});
  schema.AddAttribute(
      {"s", AttributeType::kNumeric, AttributeRole::kSensitive});
  std::vector<AttributeDomain> domains = {AttributeDomain::Numeric(0, 15),
                                          AttributeDomain::Numeric(0, 3)};
  Rng rng(4);
  std::vector<std::vector<int32_t>> cols(2);
  for (int i = 0; i < 300; ++i) {
    cols[0].push_back(static_cast<int32_t>(rng.UniformU64(16)));
    cols[1].push_back(static_cast<int32_t>(rng.UniformU64(4)));
  }
  Table t = Table::Create(schema, domains, std::move(cols)).ValueOrDie();
  PgOptions options;
  options.k = 10;
  options.p = 0.4;
  PgPublisher publisher(options);
  const Taxonomy q = Taxonomy::Binary(16, "*");
  PublishedTable published = publisher.Publish(t, {&q}).ValueOrDie();
  EXPECT_TRUE(VerifyPublication(t, published).ok());
  EXPECT_GE(published.num_rows(), 2u);
}

TEST(EdgeTest, SensitiveDomainOfTwo) {
  // |U^s| = 2: the smallest discrete sensitive domain the math allows.
  Schema schema;
  schema.AddAttribute(
      {"q", AttributeType::kNumeric, AttributeRole::kQuasiIdentifier});
  schema.AddAttribute(
      {"s", AttributeType::kNumeric, AttributeRole::kSensitive});
  std::vector<AttributeDomain> domains = {AttributeDomain::Numeric(0, 7),
                                          AttributeDomain::Numeric(0, 1)};
  Rng rng(5);
  std::vector<std::vector<int32_t>> cols(2);
  for (int i = 0; i < 200; ++i) {
    cols[0].push_back(static_cast<int32_t>(rng.UniformU64(8)));
    cols[1].push_back(static_cast<int32_t>(rng.UniformU64(2)));
  }
  Table t = Table::Create(schema, domains, std::move(cols)).ValueOrDie();
  PgOptions options;
  options.k = 5;
  options.p = 0.3;
  PgPublisher publisher(options);
  const Taxonomy q = Taxonomy::Binary(8, "*");
  PublishedTable published = publisher.Publish(t, {&q}).ValueOrDie();
  PgParams params{0.3, 5, 0.5, 2};
  EXPECT_GT(MinDelta(params), 0.0);
  EXPECT_LT(MinDelta(params), 1.0);
  EXPECT_TRUE(VerifyPublication(t, published).ok());
}

// ------------------------------------------------------- attack edge cases

TEST(EdgeTest, AttackWithNoOtherCandidates) {
  // A victim alone in their cell (k = 1): e may be 0; h must still be a
  // valid probability and Theorem 1 must hold.
  HospitalDataset hospital = MakeHospitalDataset().ValueOrDie();
  PgOptions options;
  options.k = 1;
  options.p = 0.25;
  options.seed = 6;
  PgPublisher publisher(options);
  PublishedTable published =
      publisher.Publish(hospital.table, hospital.TaxonomyPointers())
          .ValueOrDie();
  LinkingAttack attacker =
      LinkingAttack::Create(&published, &hospital.voter_list).ValueOrDie();
  Adversary adv;
  adv.victim_prior = BackgroundKnowledge::Uniform(
      hospital.table.domain(HospitalColumns::kDisease).size()).ValueOrDie();
  // Bob (index 0) has a unique QI vector even among the voter list? Not
  // necessarily — just assert the attack math stays consistent.
  AttackResult r = attacker.Attack(0, adv).ValueOrDie();
  EXPECT_GE(r.h, 0.0);
  EXPECT_LE(r.h, 1.0);
  double total = 0;
  for (double v : r.posterior) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(EdgeTest, FullySkewedPriorPinsPosterior) {
  // lambda = 1: the adversary already knows the value; the posterior must
  // stay a point mass on it (no protection possible, as Definition 4
  // notes — but also no *growth*).
  HospitalDataset hospital = MakeHospitalDataset().ValueOrDie();
  PgOptions options;
  options.k = 2;
  options.p = 0.25;
  options.seed = 7;
  PgPublisher publisher(options);
  PublishedTable published =
      publisher.Publish(hospital.table, hospital.TaxonomyPointers())
          .ValueOrDie();
  LinkingAttack attacker =
      LinkingAttack::Create(&published, &hospital.voter_list).ValueOrDie();
  const int32_t us =
      hospital.table.domain(HospitalColumns::kDisease).size();
  const int32_t truth =
      hospital.table.value(0, HospitalColumns::kDisease);
  Adversary adv;
  adv.victim_prior.pdf.assign(us, 0.0);
  adv.victim_prior.pdf[truth] = 1.0;
  AttackResult r = attacker.Attack(0, adv).ValueOrDie();
  EXPECT_NEAR(r.posterior[truth], 1.0, 1e-9);
  EXPECT_NEAR(MaxGrowth(r.posterior, adv.victim_prior).ValueOrDie(), 0.0, 1e-9);
}

TEST(EdgeTest, GValueOfExample1IsZeroWhenAllCandidatesCorrupted) {
  // Example 1's arithmetic detail: e == alpha makes the unknown-candidate
  // term vanish and g is reported as 0.
  HospitalDataset hospital = MakeHospitalDataset().ValueOrDie();
  PgOptions options;
  options.s = 0.5;
  options.p = 0.25;
  options.seed = 2008;
  PgPublisher publisher(options);
  PublishedTable published =
      publisher.Publish(hospital.table, hospital.TaxonomyPointers())
          .ValueOrDie();
  const auto& edb = hospital.voter_list;
  size_t ellie = SIZE_MAX, debbie = SIZE_MAX, emily = SIZE_MAX;
  for (size_t i = 0; i < edb.size(); ++i) {
    if (edb.individual(i).id == "Ellie") ellie = i;
    if (edb.individual(i).id == "Debbie") debbie = i;
    if (edb.individual(i).id == "Emily") emily = i;
  }
  Adversary adv;
  adv.victim_prior = BackgroundKnowledge::Uniform(
      hospital.table.domain(HospitalColumns::kDisease).size()).ValueOrDie();
  adv.corrupted[debbie] = hospital.table.value(
      edb.individual(debbie).microdata_row, HospitalColumns::kDisease);
  adv.corrupted[emily] = Adversary::kExtraneousMark;
  LinkingAttack attacker =
      LinkingAttack::Create(&published, &edb).ValueOrDie();
  AttackResult r = attacker.Attack(ellie, adv).ValueOrDie();
  EXPECT_EQ(r.e, r.alpha);
  EXPECT_DOUBLE_EQ(r.g, 0.0);
}

// ------------------------------------------------------------ TDS corners

TEST(EdgeTest, TdsOnConstantClassLabelsStillRefines) {
  // All labels identical: info gain is zero everywhere, so refinement is
  // driven purely by the balance term — and must still happen.
  Schema schema;
  schema.AddAttribute(
      {"q", AttributeType::kNumeric, AttributeRole::kQuasiIdentifier});
  schema.AddAttribute(
      {"s", AttributeType::kNumeric, AttributeRole::kSensitive});
  std::vector<AttributeDomain> domains = {AttributeDomain::Numeric(0, 31),
                                          AttributeDomain::Numeric(0, 4)};
  Rng rng(8);
  std::vector<std::vector<int32_t>> cols(2);
  for (int i = 0; i < 400; ++i) {
    cols[0].push_back(static_cast<int32_t>(rng.UniformU64(32)));
    cols[1].push_back(static_cast<int32_t>(rng.UniformU64(5)));
  }
  Table t = Table::Create(schema, domains, std::move(cols)).ValueOrDie();
  std::vector<int32_t> constant(t.num_rows(), 0);
  TdsOptions options;
  options.k = 8;
  const Taxonomy q = Taxonomy::Binary(32, "*");
  TopDownSpecializer tds(t, {0}, {&q}, constant, 2, options);
  GlobalRecoding rec = tds.Run().ValueOrDie();
  EXPECT_GT(rec.per_attr[0].num_gen_values(), 1);
  EXPECT_TRUE(IsKAnonymous(ComputeQiGroups(t, rec), 8));
}

TEST(EdgeTest, TdsSingleCodeDomainAttribute) {
  // A QI attribute with one value can never be specialized and must not
  // break anything.
  Schema schema;
  schema.AddAttribute(
      {"const", AttributeType::kNumeric, AttributeRole::kQuasiIdentifier});
  schema.AddAttribute(
      {"q", AttributeType::kNumeric, AttributeRole::kQuasiIdentifier});
  schema.AddAttribute(
      {"s", AttributeType::kNumeric, AttributeRole::kSensitive});
  std::vector<AttributeDomain> domains = {AttributeDomain::Numeric(5, 5),
                                          AttributeDomain::Numeric(0, 9),
                                          AttributeDomain::Numeric(0, 2)};
  Rng rng(9);
  std::vector<std::vector<int32_t>> cols(3);
  for (int i = 0; i < 100; ++i) {
    cols[0].push_back(0);
    cols[1].push_back(static_cast<int32_t>(rng.UniformU64(10)));
    cols[2].push_back(static_cast<int32_t>(rng.UniformU64(3)));
  }
  Table t = Table::Create(schema, domains, std::move(cols)).ValueOrDie();
  TdsOptions options;
  options.k = 5;
  const Taxonomy constant = Taxonomy::Binary(1, "*");
  const Taxonomy q = Taxonomy::Binary(10, "*");
  TopDownSpecializer tds(t, {0, 1}, {&constant, &q}, t.column(2), 3,
                         options);
  GlobalRecoding rec = tds.Run().ValueOrDie();
  EXPECT_EQ(rec.per_attr[0].num_gen_values(), 1);
  EXPECT_TRUE(IsKAnonymous(ComputeQiGroups(t, rec), 5));
}

// ------------------------------------------------------- evaluation bits

TEST(EdgeTest, EvalResultArithmetic) {
  EvalResult r;
  EXPECT_DOUBLE_EQ(r.accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(r.error(), 1.0);
  r.total = 10;
  r.correct = 7;
  EXPECT_DOUBLE_EQ(r.accuracy(), 0.7);
  EXPECT_DOUBLE_EQ(r.error(), 0.3);
}

TEST(EdgeTest, GuaranteeSolverAtExactBoundary) {
  // rho2 exactly equal to MinRho2 at p: the solver must return ~p.
  PgParams params{0.25, 4, 0.1, 50};
  const double rho2 = MinRho2(params, 0.2);
  const double p =
      MaxRetentionForRho(4, 0.1, 50, 0.2, rho2).ValueOrDie();
  EXPECT_NEAR(p, 0.25, 1e-6);
}

TEST(EdgeTest, GuaranteeLambdaBelowUniformIsStillMonotone) {
  // lambda below 1/|U^s| is not a realizable pdf bound but must not break
  // the formulas (they remain monotone and within [0,1]).
  PgParams params{0.3, 6, 0.005, 50};
  const double rho2 = MinRho2(params, 0.2);
  const double delta = MinDelta(params);
  EXPECT_GT(rho2, 0.2);
  EXPECT_LT(rho2, 1.0);
  EXPECT_GT(delta, 0.0);
  EXPECT_LT(delta, 1.0);
}

}  // namespace
}  // namespace pgpub
