#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/sal_digest.h"
#include "common/parallel/thread_pool.h"
#include "common/random.h"
#include "core/publish_hooks.h"
#include "core/robust_publisher.h"
#include "core/validate.h"
#include "datagen/census.h"
#include "diversity/ldiversity.h"
#include "generalize/incognito.h"
#include "generalize/metrics.h"
#include "generalize/qi_groups.h"
#include "generalize/tds.h"
#include "mining/category.h"

namespace pgpub {
namespace {

/// Small synthetic microdata: two numeric QI attributes plus a numeric
/// sensitive column; values clustered so k-anonymity is non-trivial.
struct Fixture {
  Table table;
  std::vector<int> qi;
  int sens;
  Taxonomy tax_a;
  Taxonomy tax_b;
};

Fixture MakeFixture(size_t n, uint64_t seed) {
  Schema schema;
  schema.AddAttribute(
      {"A", AttributeType::kNumeric, AttributeRole::kQuasiIdentifier});
  schema.AddAttribute(
      {"B", AttributeType::kNumeric, AttributeRole::kQuasiIdentifier});
  schema.AddAttribute(
      {"S", AttributeType::kNumeric, AttributeRole::kSensitive});
  std::vector<AttributeDomain> domains = {AttributeDomain::Numeric(0, 15),
                                          AttributeDomain::Numeric(0, 7),
                                          AttributeDomain::Numeric(0, 4)};
  Rng rng(seed);
  std::vector<std::vector<int32_t>> cols(3);
  for (size_t i = 0; i < n; ++i) {
    int32_t a = static_cast<int32_t>(rng.UniformU64(16));
    int32_t b = static_cast<int32_t>(rng.UniformU64(8));
    // Sensitive correlates with A so info gain is meaningful.
    int32_t s = std::min<int32_t>(4, (a / 4 + static_cast<int32_t>(
                                                  rng.UniformU64(2))));
    cols[0].push_back(a);
    cols[1].push_back(b);
    cols[2].push_back(s);
  }
  Fixture f{
      Table::Create(schema, domains, std::move(cols)).ValueOrDie(),
      {0, 1},
      2,
      Taxonomy::Binary(16, "A:*"),
      Taxonomy::Binary(8, "B:*")};
  return f;
}

QiGroups GroupsOf(const Fixture& f, const GlobalRecoding& rec) {
  return ComputeQiGroups(f.table, rec);
}

// --------------------------------------------------------------- QiGroups

TEST(QiGroupsTest, GroupsPartitionRows) {
  Fixture f = MakeFixture(500, 1);
  GlobalRecoding rec = GlobalRecoding::AllIdentity(f.table, f.qi);
  QiGroups g = GroupsOf(f, rec);
  size_t covered = 0;
  for (size_t gid = 0; gid < g.num_groups(); ++gid) {
    for (uint32_t r : g.group_rows[gid]) {
      EXPECT_EQ(g.row_to_group[r], static_cast<int32_t>(gid));
      ++covered;
    }
  }
  EXPECT_EQ(covered, f.table.num_rows());
}

TEST(QiGroupsTest, IdentityGroupsShareExactQi) {
  Fixture f = MakeFixture(300, 2);
  GlobalRecoding rec = GlobalRecoding::AllIdentity(f.table, f.qi);
  QiGroups g = GroupsOf(f, rec);
  for (const auto& rows : g.group_rows) {
    for (uint32_t r : rows) {
      EXPECT_EQ(f.table.value(r, 0), f.table.value(rows[0], 0));
      EXPECT_EQ(f.table.value(r, 1), f.table.value(rows[0], 1));
    }
  }
}

TEST(QiGroupsTest, SingleRecodingYieldsOneGroup) {
  Fixture f = MakeFixture(100, 3);
  QiGroups g = GroupsOf(f, GlobalRecoding::AllSingle(f.table, f.qi));
  EXPECT_EQ(g.num_groups(), 1u);
  EXPECT_EQ(g.MinGroupSize(), 100u);
  EXPECT_EQ(g.MaxGroupSize(), 100u);
}

// ---------------------------------------------------------------- Metrics

TEST(MetricsTest, KAnonymityThreshold) {
  Fixture f = MakeFixture(64, 4);
  QiGroups g = GroupsOf(f, GlobalRecoding::AllSingle(f.table, f.qi));
  EXPECT_TRUE(IsKAnonymous(g, 64));
  EXPECT_FALSE(IsKAnonymous(g, 65));
}

TEST(MetricsTest, DiscernibilityPenalty) {
  QiGroups g;
  g.group_rows = {{0, 1}, {2, 3, 4}};
  EXPECT_EQ(DiscernibilityPenalty(g), 4 + 9);
}

TEST(MetricsTest, NcpBoundsAndExtremes) {
  Fixture f = MakeFixture(200, 5);
  EXPECT_DOUBLE_EQ(
      GlobalNcp(f.table, GlobalRecoding::AllIdentity(f.table, f.qi)), 0.0);
  EXPECT_DOUBLE_EQ(
      GlobalNcp(f.table, GlobalRecoding::AllSingle(f.table, f.qi)), 1.0);
}

// -------------------------------------------------------------------- TDS

class TdsKSweep : public ::testing::TestWithParam<int> {};

TEST_P(TdsKSweep, ProducesKAnonymousGlobalRecoding) {
  const int k = GetParam();
  Fixture f = MakeFixture(800, 10 + k);
  TdsOptions opt;
  opt.k = k;
  TopDownSpecializer tds(f.table, f.qi, {&f.tax_a, &f.tax_b},
                         f.table.column(f.sens), 5, opt);
  GlobalRecoding rec = tds.Run().ValueOrDie();
  QiGroups g = GroupsOf(f, rec);
  EXPECT_TRUE(IsKAnonymous(g, k)) << "k=" << k;
  // G3 (global recoding): gen values partition each domain by construction;
  // verify distinct signatures have disjoint generalized boxes.
  for (size_t i = 0; i < rec.per_attr.size(); ++i) {
    const AttributeRecoding& ar = rec.per_attr[i];
    int32_t expect_lo = 0;
    for (int32_t gv = 0; gv < ar.num_gen_values(); ++gv) {
      EXPECT_EQ(ar.GenInterval(gv).lo, expect_lo);
      expect_lo = ar.GenInterval(gv).hi + 1;
    }
    EXPECT_EQ(expect_lo, f.table.domain(rec.qi_attrs[i]).size());
  }
}

INSTANTIATE_TEST_SUITE_P(KValues, TdsKSweep,
                         ::testing::Values(2, 3, 4, 6, 8, 10, 16, 25));

TEST(TdsTest, RefinesBeyondTrivialWhenDataAllows) {
  Fixture f = MakeFixture(2000, 42);
  TdsOptions opt;
  opt.k = 4;
  TopDownSpecializer tds(f.table, f.qi, {&f.tax_a, &f.tax_b},
                         f.table.column(f.sens), 5, opt);
  GlobalRecoding rec = tds.Run().ValueOrDie();
  EXPECT_GT(tds.num_specializations(), 0);
  QiGroups g = GroupsOf(f, rec);
  EXPECT_GT(g.num_groups(), 8u);
}

TEST(TdsTest, RespectsMaxSpecializations) {
  Fixture f = MakeFixture(1000, 7);
  TdsOptions opt;
  opt.k = 2;
  opt.max_specializations = 3;
  TopDownSpecializer tds(f.table, f.qi, {&f.tax_a, &f.tax_b},
                         f.table.column(f.sens), 5, opt);
  GlobalRecoding rec = tds.Run().ValueOrDie();
  EXPECT_LE(tds.num_specializations(), 3);
  int total_segments = 0;
  for (const auto& ar : rec.per_attr) total_segments += ar.num_gen_values();
  EXPECT_LE(total_segments, 2 + 3);  // each binary spec adds one segment
}

TEST(TdsTest, FailsWhenFewerRowsThanK) {
  Fixture f = MakeFixture(5, 8);
  TdsOptions opt;
  opt.k = 10;
  TopDownSpecializer tds(f.table, f.qi, {&f.tax_a, &f.tax_b},
                         f.table.column(f.sens), 5, opt);
  EXPECT_TRUE(tds.Run().status().IsFailedPrecondition());
}

TEST(TdsTest, KBelowOneIsInvalidArgument) {
  // k = 0 must not yield a recoding, and k = -3 must not wrap to a huge
  // unsigned row count and read as "fewer rows than k".
  Fixture f = MakeFixture(200, 8);
  for (int k : {0, -3}) {
    TdsOptions opt;
    opt.k = k;
    TopDownSpecializer tds(f.table, f.qi, {&f.tax_a, &f.tax_b},
                           f.table.column(f.sens), 5, opt);
    EXPECT_TRUE(tds.Run().status().IsInvalidArgument()) << "k=" << k;
  }
}

TEST(TdsTest, DeterministicAcrossRuns) {
  Fixture f = MakeFixture(500, 11);
  TdsOptions opt;
  opt.k = 3;
  auto run = [&]() {
    TopDownSpecializer tds(f.table, f.qi, {&f.tax_a, &f.tax_b},
                           f.table.column(f.sens), 5, opt);
    return tds.Run().ValueOrDie();
  };
  GlobalRecoding r1 = run(), r2 = run();
  for (size_t i = 0; i < r1.per_attr.size(); ++i) {
    EXPECT_EQ(r1.per_attr[i].starts(), r2.per_attr[i].starts());
  }
}

TEST(TdsTest, ConstraintBlocksSpecialization) {
  Fixture f = MakeFixture(600, 12);
  // Require every group to keep at least 3 distinct sensitive values.
  DistinctLDiversity diversity(3);
  TdsOptions opt;
  opt.k = 2;
  opt.constraint = &diversity;
  opt.constraint_attr = f.sens;
  TopDownSpecializer tds(f.table, f.qi, {&f.tax_a, &f.tax_b},
                         f.table.column(f.sens), 5, opt);
  GlobalRecoding rec = tds.Run().ValueOrDie();
  QiGroups g = GroupsOf(f, rec);
  EXPECT_TRUE(IsKAnonymous(g, 2));
  EXPECT_TRUE(AllGroupsSatisfy(f.table, g, f.sens, diversity));
  EXPECT_GE(MinDistinctSensitive(f.table, g, f.sens), 3);
}

TEST(TdsTest, UnsatisfiableConstraintFailsUpfront) {
  Fixture f = MakeFixture(100, 13);
  DistinctLDiversity diversity(50);  // sensitive domain has only 5 values
  TdsOptions opt;
  opt.k = 2;
  opt.constraint = &diversity;
  opt.constraint_attr = f.sens;
  TopDownSpecializer tds(f.table, f.qi, {&f.tax_a, &f.tax_b},
                         f.table.column(f.sens), 5, opt);
  EXPECT_TRUE(tds.Run().status().IsFailedPrecondition());
}

TEST(TdsTest, TaxonomyDomainMismatchRejected) {
  // A taxonomy of the wrong width and a missing (null) taxonomy are both
  // typed input errors that name the attribute, never aborts.
  Fixture f = MakeFixture(100, 14);
  Taxonomy wrong = Taxonomy::Binary(5, "wrong");
  TdsOptions opt;
  opt.k = 2;
  for (const std::vector<const Taxonomy*>& taxonomies :
       {std::vector<const Taxonomy*>{&wrong, &f.tax_b},
        std::vector<const Taxonomy*>{nullptr, &f.tax_b},
        std::vector<const Taxonomy*>{&f.tax_a, nullptr}}) {
    TopDownSpecializer tds(f.table, f.qi, taxonomies,
                           f.table.column(f.sens), 5, opt);
    const Status status = tds.Run().status();
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    const std::string attr = taxonomies[0] == &f.tax_a ? "B" : "A";
    EXPECT_NE(status.message().find("attribute " + attr), std::string::npos)
        << status.ToString();
  }
  TopDownSpecializer too_few(f.table, f.qi, {&f.tax_a},
                             f.table.column(f.sens), 5, opt);
  EXPECT_TRUE(too_few.Run().status().IsInvalidArgument());
}

TEST(TdsTest, RecodingPinnedAcrossScoringModes) {
  // The SAL pins cover only the default score. This pins the recoding
  // (and the specialization count) of the classic InfoGain/(AnonyLoss+1)
  // score, of a constrained (ℓ-diversity) search and of the default, each
  // serial and on 8 threads, so a change to candidate scoring must leave
  // all three searches bit-identical.
  const CensusDataset census = GenerateCensus(6000, 2008).ValueOrDie();
  const std::vector<int> qi = census.table.schema().QiIndices();
  const std::vector<int32_t> labels = CategoryMap::PaperIncome(3).Map(
      census.table.column(CensusColumns::kIncome));
  const DistinctLDiversity diversity(6);

  struct Mode {
    const char* name;
    bool balance_aware;
    const GroupConstraint* constraint;
    const char* digest;
    int specializations;
  };
  const Mode modes[] = {
      {"classic", false, nullptr, "0x67a89f176ed7726b", 24},
      {"l-diversity", true, &diversity, "0xab4f522d739855c4", 40},
      {"default", true, nullptr, "0x7c32894a0961aea4", 43},
  };
  for (const Mode& mode : modes) {
    for (int threads : {1, 8}) {
      SCOPED_TRACE(std::string(mode.name) + " t" + std::to_string(threads));
      std::optional<ThreadPool> pool;
      if (threads > 1) pool.emplace(threads);
      TdsOptions options;
      options.k = 8;
      options.balance_aware = mode.balance_aware;
      options.constraint = mode.constraint;
      options.constraint_attr =
          mode.constraint != nullptr ? CensusColumns::kIncome : -1;
      options.pool = pool.has_value() ? &*pool : nullptr;
      TopDownSpecializer tds(census.table, qi, census.TaxonomyPointers(),
                             labels, 3, options);
      const GlobalRecoding rec = tds.Run().ValueOrDie();
      bench::Fnv fnv;
      for (size_t i = 0; i < rec.per_attr.size(); ++i) {
        fnv.Mix(rec.qi_attrs[i]);
        for (int32_t start : rec.per_attr[i].starts()) fnv.Mix(start);
      }
      EXPECT_EQ(bench::Hex(fnv.h), mode.digest);
      EXPECT_EQ(tds.num_specializations(), mode.specializations);
    }
  }
}

// -------------------------------------------------------------- Incognito

class IncognitoKSweep : public ::testing::TestWithParam<int> {};

TEST_P(IncognitoKSweep, MinimalKAnonymousFullDomain) {
  const int k = GetParam();
  Fixture f = MakeFixture(400, 20 + k);
  IncognitoOptions opt;
  opt.k = k;
  GlobalRecoding rec =
      IncognitoSearch(f.table, f.qi, {&f.tax_a, &f.tax_b}, opt)
          .ValueOrDie();
  QiGroups g = GroupsOf(f, rec);
  EXPECT_TRUE(IsKAnonymous(g, k));
}

INSTANTIATE_TEST_SUITE_P(KValues, IncognitoKSweep,
                         ::testing::Values(2, 5, 10, 40));

TEST(IncognitoTest, ResultIsMinimalOnItsPath) {
  Fixture f = MakeFixture(300, 33);
  IncognitoOptions opt;
  opt.k = 5;
  GlobalRecoding rec =
      IncognitoSearch(f.table, f.qi, {&f.tax_a, &f.tax_b}, opt)
          .ValueOrDie();
  // Depths of the found node.
  auto depth_of = [](const Taxonomy& t, const AttributeRecoding& ar) {
    // Full-domain cut: the depth of the node matching the first interval.
    return t.node(t.FindNode(ar.GenInterval(0))).depth;
  };
  std::vector<int> depths = {depth_of(f.tax_a, rec.per_attr[0]),
                             depth_of(f.tax_b, rec.per_attr[1])};
  // Specializing any single attribute one more level must break
  // k-anonymity (minimality).
  std::vector<const Taxonomy*> taxonomies = {&f.tax_a, &f.tax_b};
  for (size_t i = 0; i < depths.size(); ++i) {
    if (depths[i] >= taxonomies[i]->height()) continue;
    std::vector<int> deeper = depths;
    deeper[i]++;
    GlobalRecoding child = RecodingAtDepths(f.qi, taxonomies, deeper);
    EXPECT_FALSE(IsKAnonymous(ComputeQiGroups(f.table, child), opt.k));
  }
}

TEST(IncognitoTest, RequiresTaxonomies) {
  Fixture f = MakeFixture(100, 34);
  IncognitoOptions opt;
  EXPECT_TRUE(IncognitoSearch(f.table, f.qi, {&f.tax_a, nullptr}, opt)
                  .status()
                  .IsInvalidArgument());
}

TEST(IncognitoTest, FewerRowsThanKFails) {
  Fixture f = MakeFixture(3, 35);
  IncognitoOptions opt;
  opt.k = 10;
  EXPECT_TRUE(IncognitoSearch(f.table, f.qi, {&f.tax_a, &f.tax_b}, opt)
                  .status()
                  .IsFailedPrecondition());
}

TEST(IncognitoTest, KBelowOneIsInvalidArgument) {
  Fixture f = MakeFixture(200, 35);
  for (int k : {0, -3}) {
    IncognitoOptions opt;
    opt.k = k;
    EXPECT_TRUE(IncognitoSearch(f.table, f.qi, {&f.tax_a, &f.tax_b}, opt)
                    .status()
                    .IsInvalidArgument())
        << "k=" << k;
  }
}

TEST(IncognitoTest, NeverWorseNcpThanFullSuppression) {
  Fixture f = MakeFixture(400, 36);
  IncognitoOptions opt;
  opt.k = 3;
  GlobalRecoding rec =
      IncognitoSearch(f.table, f.qi, {&f.tax_a, &f.tax_b}, opt)
          .ValueOrDie();
  EXPECT_LE(GlobalNcp(f.table, rec), 1.0);
}

/// `num_attrs` flat QI attributes of domain `domain`, every code in {0, 1}.
struct WideTable {
  Table table;
  std::vector<int> qi;
  std::vector<Taxonomy> taxonomies;

  std::vector<const Taxonomy*> TaxonomyPointers() const {
    std::vector<const Taxonomy*> out;
    for (const Taxonomy& t : taxonomies) out.push_back(&t);
    return out;
  }
};

WideTable MakeWideTable(int num_attrs, int32_t domain, size_t rows,
                        uint64_t seed) {
  Schema schema;
  std::vector<AttributeDomain> domains;
  std::vector<std::vector<int32_t>> cols(num_attrs);
  WideTable out;
  Rng rng(seed);
  for (int a = 0; a < num_attrs; ++a) {
    schema.AddAttribute({"q" + std::to_string(a), AttributeType::kNumeric,
                         AttributeRole::kQuasiIdentifier});
    domains.push_back(AttributeDomain::Numeric(0, domain - 1));
    out.qi.push_back(a);
    out.taxonomies.push_back(Taxonomy::Flat(domain, "*"));
    for (size_t r = 0; r < rows; ++r) {
      cols[a].push_back(static_cast<int32_t>(rng.UniformU64(2)));
    }
  }
  out.table = Table::Create(schema, domains, std::move(cols)).ValueOrDie();
  return out;
}

TEST(IncognitoTest, WideDomainsCountExactly) {
  // 1000^8 cells overflow a u64 cell key once seven attributes are at
  // full depth. Every node is 2-anonymous (256 code combinations over
  // 20k rows), so the search reaches the bottom of the lattice.
  const WideTable wide = MakeWideTable(8, 1000, 20000, 51);
  IncognitoOptions opt;
  opt.k = 2;
  const GlobalRecoding rec =
      IncognitoSearch(wide.table, wide.qi, wide.TaxonomyPointers(), opt)
          .ValueOrDie();
  for (const AttributeRecoding& attr : rec.per_attr) {
    EXPECT_EQ(attr.num_gen_values(), 1000);
  }
  std::map<std::vector<int32_t>, int64_t> groups;
  for (size_t r = 0; r < wide.table.num_rows(); ++r) {
    ++groups[rec.GenVectorOfRow(wide.table, r)];
  }
  EXPECT_EQ(groups.size(), 256u);
  for (const auto& [gen, count] : groups) EXPECT_GE(count, opt.k);
  EXPECT_EQ(rec.NumCells(), UINT64_MAX);
}

TEST(IncognitoTest, WideDomainPublishIsInvalidArgumentNotAnAbort) {
  // The search above succeeds, but grouping its recoding would key rows
  // by a signature that overflows u64. The publisher must reject it with
  // a typed Status instead of aborting the process.
  const WideTable wide = MakeWideTable(8, 1000, 20000, 51);
  Schema schema = wide.table.schema();
  schema.AddAttribute(
      {"s", AttributeType::kNumeric, AttributeRole::kSensitive});
  std::vector<AttributeDomain> domains = wide.table.domains();
  domains.push_back(AttributeDomain::Numeric(0, 4));
  std::vector<std::vector<int32_t>> cols;
  for (int a : wide.qi) cols.push_back(wide.table.column(a));
  cols.emplace_back();
  for (size_t r = 0; r < wide.table.num_rows(); ++r) {
    cols.back().push_back(static_cast<int32_t>(r % 5));
  }
  const Table table =
      Table::Create(schema, domains, std::move(cols)).ValueOrDie();

  PgOptions options;
  options.k = 2;
  options.p = 0.3;
  options.seed = 42;
  options.generalizer = PgOptions::Generalizer::kIncognito;
  auto expect_overflow_rejected = [](const Result<PublishedTable>& result) {
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsInvalidArgument())
        << result.status().ToString();
    EXPECT_NE(result.status().message().find("overflows u64"),
              std::string::npos)
        << result.status().ToString();
  };
  expect_overflow_rejected(
      RobustPublisher(options).Publish(table, wide.TaxonomyPointers()));

  // The same recoding served as a cache hit is rejected the same way.
  class CachedRecodingHooks : public PublishHooks {
   public:
    explicit CachedRecodingHooks(GlobalRecoding recoding)
        : recoding_(std::move(recoding)) {}
    std::optional<GlobalRecoding> LookupRecoding(
        const RecodingQuery& query) override {
      (void)query;
      return recoding_;
    }

   private:
    GlobalRecoding recoding_;
  };
  IncognitoOptions search;
  search.k = 2;
  CachedRecodingHooks hooks(
      IncognitoSearch(wide.table, wide.qi, wide.TaxonomyPointers(), search)
          .ValueOrDie());
  const ValidatedDataset dataset =
      ValidateDataset(table, wide.TaxonomyPointers()).ValueOrDie();
  expect_overflow_rejected(PgPublisher(options).Publish(dataset, &hooks));
}

TEST(IncognitoTest, MoreThan64QiAttributesIsInvalidArgument) {
  const WideTable wide = MakeWideTable(65, 2, 10, 52);
  EXPECT_TRUE(IncognitoSearch(wide.table, wide.qi, wide.TaxonomyPointers(),
                              IncognitoOptions{})
                  .status()
                  .IsInvalidArgument());
}

TEST(IncognitoTest, LatticeLargerThanTheBoundIsInvalidArgument) {
  // A binary taxonomy over 256 codes has height 8, so d such attributes
  // span 9^d lattice nodes: 59,049 for five, 531,441 for six.
  static_assert(59049 <= columnar::kMaxLatticeNodes &&
                531441 > columnar::kMaxLatticeNodes);
  for (int attrs : {5, 6}) {
    WideTable wide = MakeWideTable(attrs, 256, 10, 53);
    for (Taxonomy& t : wide.taxonomies) t = Taxonomy::Binary(256, "*");
    ASSERT_EQ(wide.taxonomies[0].height(), 8);
    const auto result = IncognitoSearch(wide.table, wide.qi,
                                        wide.TaxonomyPointers(),
                                        IncognitoOptions{});
    if (attrs == 5) {
      EXPECT_TRUE(result.ok()) << result.status().ToString();
    } else {
      EXPECT_TRUE(result.status().IsInvalidArgument())
          << result.status().ToString();
      EXPECT_NE(result.status().message().find("lattice too large"),
                std::string::npos);
    }
  }
}

}  // namespace
}  // namespace pgpub
