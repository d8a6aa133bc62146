/// The determinism proof behind DESIGN.md §15: each generalizer has one
/// Phase-2 engine (row-wise TDS, columnar Incognito), and for every
/// dataset × generalizer the published table, the timing-normalized
/// PublishReport JSON, and the Phase-2 search counters are byte-identical
/// serial and on 8 threads. Seeded property tests additionally pin
/// Incognito's LatticeCounter to the naive ComputeQiGroups verdict and
/// the row-wise GlobalNcp on random tables, and its pruned lattice walk
/// to an unpruned reference walk.

#include <gtest/gtest.h>

#include <cstdint>
#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel/thread_pool.h"
#include "common/random.h"
#include "core/columnar/qi_index.h"
#include "core/report_io.h"
#include "core/robust_publisher.h"
#include "datagen/census.h"
#include "datagen/clinic.h"
#include "datagen/hospital.h"
#include "generalize/incognito.h"
#include "generalize/metrics.h"
#include "generalize/qi_groups.h"
#include "hierarchy/taxonomy.h"
#include "obs/metrics.h"
#include "table/table.h"

namespace pgpub {
namespace {

/// Search-relevant counters: serial and threaded runs must agree not only
/// on the published bytes but on how much work the search reported doing
/// (same specialization count, same lattice walk).
std::map<std::string, uint64_t> SearchCounters() {
  std::map<std::string, uint64_t> out;
  const obs::MetricsRegistry::Snapshot snapshot =
      obs::MetricsRegistry::Global().TakeSnapshot();
  for (const auto& [name, value] : snapshot.counters) {
    if (name.rfind("tds.", 0) == 0 || name.rfind("incognito.", 0) == 0 ||
        name.rfind("publish.", 0) == 0) {
      out[name] = value;
    }
  }
  return out;
}

std::map<std::string, uint64_t> CounterDelta(
    const std::map<std::string, uint64_t>& before,
    const std::map<std::string, uint64_t>& after) {
  std::map<std::string, uint64_t> delta;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    const uint64_t prior = it == before.end() ? 0 : it->second;
    if (value != prior) delta[name] = value - prior;
  }
  return delta;
}

/// One full RobustPublisher run at a pinned thread count.
struct RunOutput {
  PublishedTable table;
  std::string report_json;  ///< Timing-normalized.
  std::map<std::string, uint64_t> counters;
};

/// Zeroes the wall-clock fields — the only legitimate run-to-run
/// difference — so the rest of the report must match byte-for-byte.
void NormalizeTimings(PublishReport* report) {
  report->total_ms = 0.0;
  for (PublishReport::Attempt& attempt : report->attempts) {
    attempt.elapsed_ms = 0.0;
  }
}

std::string Label(int threads) { return "t" + std::to_string(threads); }

RunOutput PublishWith(const Table& microdata,
                      const std::vector<const Taxonomy*>& taxonomies,
                      PgOptions options, int threads) {
  options.num_threads = threads;
  const std::map<std::string, uint64_t> before = SearchCounters();
  RobustPublisher publisher(options);
  PublishReport report;
  Result<PublishedTable> published =
      publisher.Publish(microdata, taxonomies, &report);
  EXPECT_TRUE(published.ok())
      << Label(threads) << ": " << published.status().message();
  NormalizeTimings(&report);
  return RunOutput{std::move(*published), PublishReportToJsonString(report),
                   CounterDelta(before, SearchCounters())};
}

/// Byte-level equality of everything a release publishes, plus the
/// search-counter deltas both runs recorded.
void ExpectIdenticalRelease(const RunOutput& oracle, const RunOutput& other,
                            const std::string& label) {
  const PublishedTable& a = oracle.table;
  const PublishedTable& b = other.table;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << label;
  ASSERT_EQ(a.num_qi_attrs(), b.num_qi_attrs()) << label;
  EXPECT_EQ(a.retention_p(), b.retention_p()) << label;
  EXPECT_EQ(a.k(), b.k()) << label;
  for (size_t r = 0; r < a.num_rows(); ++r) {
    ASSERT_EQ(a.sensitive(r), b.sensitive(r)) << "row " << r << " " << label;
    ASSERT_EQ(a.group_size(r), b.group_size(r)) << "row " << r << " " << label;
    for (int i = 0; i < a.num_qi_attrs(); ++i) {
      ASSERT_EQ(a.qi_gen(r, i), b.qi_gen(r, i))
          << "row " << r << " attr " << i << " " << label;
    }
  }
  EXPECT_EQ(oracle.report_json, other.report_json) << label;
  EXPECT_EQ(oracle.counters, other.counters) << label;
}

/// The determinism grid: the serial run is the oracle; the 8-thread run
/// must reproduce it exactly.
void CheckThreadEquivalence(const Table& microdata,
                            const std::vector<const Taxonomy*>& taxonomies,
                            const PgOptions& options) {
  const RunOutput oracle = PublishWith(microdata, taxonomies, options, 1);
  const RunOutput run = PublishWith(microdata, taxonomies, options, 8);
  ExpectIdenticalRelease(oracle, run, Label(8));
}

TEST(Phase2EquivalenceTest, CensusTdsAcrossImplsAndThreadCounts) {
  CensusDataset census = GenerateCensus(3000, 11).ValueOrDie();
  for (uint64_t seed : {42u, 1337u}) {
    PgOptions options;
    options.k = 8;
    options.p = 0.3;
    options.seed = seed;
    CheckThreadEquivalence(census.table, census.TaxonomyPointers(), options);
  }
}

TEST(Phase2EquivalenceTest, ClinicTdsAcrossImplsAndThreadCounts) {
  CensusDataset clinic = GenerateClinic(1200, 12).ValueOrDie();
  PgOptions options;
  options.k = 5;
  options.p = 0.4;
  options.seed = 42;
  CheckThreadEquivalence(clinic.table, clinic.TaxonomyPointers(), options);
}

TEST(Phase2EquivalenceTest, HospitalRunningExampleAcrossImpls) {
  HospitalDataset hospital = MakeHospitalDataset().ValueOrDie();
  PgOptions options;
  options.s = 0.5;
  options.p = 0.25;
  options.seed = 42;
  CheckThreadEquivalence(hospital.table, hospital.TaxonomyPointers(), options);
}

TEST(Phase2EquivalenceTest, CensusIncognitoAcrossImplsAndThreadCounts) {
  // Narrow 3-attribute schema so the full-domain lattice stays small —
  // the same construction as the publisher Incognito test.
  CensusDataset census = GenerateCensus(3000, 13).ValueOrDie();
  Schema schema;
  schema.AddAttribute(
      {"Age", AttributeType::kNumeric, AttributeRole::kQuasiIdentifier});
  schema.AddAttribute({"Gender", AttributeType::kCategorical,
                       AttributeRole::kQuasiIdentifier});
  schema.AddAttribute(
      {"Income", AttributeType::kNumeric, AttributeRole::kSensitive});
  std::vector<AttributeDomain> domains = {
      census.table.domain(CensusColumns::kAge),
      census.table.domain(CensusColumns::kGender),
      census.table.domain(CensusColumns::kIncome)};
  std::vector<std::vector<int32_t>> cols = {
      census.table.column(CensusColumns::kAge),
      census.table.column(CensusColumns::kGender),
      census.table.column(CensusColumns::kIncome)};
  Table narrow = Table::Create(schema, domains, std::move(cols)).ValueOrDie();
  const std::vector<const Taxonomy*> taxonomies = {
      &census.taxonomies[CensusColumns::kAge],
      &census.taxonomies[CensusColumns::kGender]};

  PgOptions options;
  options.k = 10;
  options.p = 0.3;
  options.seed = 42;
  options.generalizer = PgOptions::Generalizer::kIncognito;
  CheckThreadEquivalence(narrow, taxonomies, options);
}

TEST(Phase2EquivalenceTest, RandomizedOptionSweep) {
  // Seeded sweep across the option space: random k, p, seed, and class
  // categories. The threaded run must track the serial one on every
  // combination, not just the hand-picked ones above.
  CensusDataset census = GenerateCensus(1500, 17).ValueOrDie();
  Rng rng(0xd1ff);
  for (int trial = 0; trial < 8; ++trial) {
    PgOptions options;
    options.k = rng.UniformInt(2, 12);
    options.p = 0.1 + 0.8 * rng.UniformDouble();
    options.seed = rng.Next64();
    if (trial % 2 == 1) {
      // Coarse income classes exercise the class-category labelling.
      options.class_category_starts = {0, 10, 25};
    }
    SCOPED_TRACE("trial " + std::to_string(trial) +
                 " k=" + std::to_string(options.k));
    CheckThreadEquivalence(census.table, census.TaxonomyPointers(), options);
  }
}

/// Builds a random QI-only table plus matching taxonomies for the
/// LatticeCounter property test.
struct RandomLattice {
  Table table;
  std::vector<Taxonomy> taxonomies;
  std::vector<int> qi_attrs;
};

RandomLattice MakeRandomLattice(Rng& rng) {
  const int num_attrs = rng.UniformInt(1, 3);
  Schema schema;
  std::vector<AttributeDomain> domains;
  std::vector<Taxonomy> taxonomies;
  std::vector<int> qi_attrs;
  for (int a = 0; a < num_attrs; ++a) {
    const int32_t domain = rng.UniformInt(2, 9);
    schema.AddAttribute({"q" + std::to_string(a), AttributeType::kNumeric,
                         AttributeRole::kQuasiIdentifier});
    domains.push_back(AttributeDomain::Numeric(0, domain - 1));
    taxonomies.push_back(rng.UniformInt(0, 1) == 0
                             ? Taxonomy::Flat(domain, "*")
                             : Taxonomy::Binary(domain, "*"));
    qi_attrs.push_back(a);
  }
  const int num_rows = rng.UniformInt(0, 60);
  std::vector<std::vector<int32_t>> columns(num_attrs);
  for (int a = 0; a < num_attrs; ++a) {
    columns[a].reserve(num_rows);
    for (int r = 0; r < num_rows; ++r) {
      columns[a].push_back(
          rng.UniformInt(0, domains[a].size() - 1));
    }
  }
  Table table =
      Table::Create(schema, domains, std::move(columns)).ValueOrDie();
  return RandomLattice{std::move(table), std::move(taxonomies),
                       std::move(qi_attrs)};
}

/// The naive row-wise verdict the counter replaces.
bool NaiveAnonymous(const Table& table, const std::vector<int>& qi_attrs,
                    const std::vector<const Taxonomy*>& taxonomies,
                    const std::vector<int>& depths, int k) {
  return IsKAnonymous(
      ComputeQiGroups(table, RecodingAtDepths(qi_attrs, taxonomies, depths)),
      k);
}

/// Asks the counter about every child of `parent` and compares each
/// verdict with the naive one.
void ExpectChildrenMatchNaive(const columnar::LatticeCounter& counter,
                              const Table& table,
                              const std::vector<int>& qi_attrs,
                              const std::vector<const Taxonomy*>& taxonomies,
                              const std::vector<int>& parent, int k) {
  const uint64_t all = (uint64_t{1} << parent.size()) - 1;
  const uint64_t anonymous = counter.AnonymousChildren(parent, all, k);
  for (size_t j = 0; j < parent.size(); ++j) {
    std::vector<int> child = parent;
    ++child[j];
    EXPECT_EQ(NaiveAnonymous(table, qi_attrs, taxonomies, child, k),
              (anonymous >> j & 1) != 0)
        << "child attr " << j << " k=" << k;
  }
}

TEST(Phase2EquivalenceTest, LatticeCounterMatchesNaiveOnRandomTables) {
  // ~200 random (table, parent, children, k) probes, including empty
  // tables and depths beyond the taxonomy height (both sides clamp
  // identically). The naive side is the exact row-wise oracle the counter
  // replaces. Every probe folds on this one thread, so its thread-local
  // scratch is reused across counters of different cell counts.
  Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    const RandomLattice lat = MakeRandomLattice(rng);
    std::vector<const Taxonomy*> tax_ptrs;
    for (const Taxonomy& t : lat.taxonomies) tax_ptrs.push_back(&t);
    const columnar::QiIndex index =
        columnar::QiIndex::Build(lat.table, lat.qi_attrs);
    const columnar::LatticeCounter counter(&index, tax_ptrs);

    for (int probe = 0; probe < 4; ++probe) {
      std::vector<int> parent;
      for (size_t a = 0; a < lat.qi_attrs.size(); ++a) {
        parent.push_back(rng.UniformInt(0, tax_ptrs[a]->height() + 1));
      }
      const uint64_t asked =
          rng.UniformInt(1, (1 << lat.qi_attrs.size()) - 1);
      const int k = rng.UniformInt(1, 6);
      const uint64_t anonymous = counter.AnonymousChildren(parent, asked, k);
      EXPECT_EQ(anonymous & ~asked, 0u) << "answered an unasked child";
      for (size_t j = 0; j < parent.size(); ++j) {
        if ((asked >> j & 1) == 0) continue;
        std::vector<int> child = parent;
        ++child[j];
        ASSERT_EQ(NaiveAnonymous(lat.table, lat.qi_attrs, tax_ptrs, child, k),
                  (anonymous >> j & 1) != 0)
            << "trial " << trial << " probe " << probe << " attr " << j
            << " k=" << k << " rows=" << lat.table.num_rows();
      }
    }
  }
}

TEST(Phase2EquivalenceTest, LatticeCounterSparseFallbackMatchesNaive) {
  // 4 binary-taxonomy attributes of domain 40 over 20,000 rows. At the
  // deepest parents the fold's last step keys ~17k cells by ~40 ranks and
  // each child pass keys as many, past the flat table's 4-byte slots in
  // kDenseTableBytes, so both go to the hash-map fallback. The verdicts
  // must be the same exact counts either way.
  Rng rng(77);
  Schema schema;
  std::vector<AttributeDomain> domains;
  std::vector<Taxonomy> taxonomies;
  std::vector<int> qi_attrs = {0, 1, 2, 3};
  std::vector<std::vector<int32_t>> columns(4);
  for (int a = 0; a < 4; ++a) {
    schema.AddAttribute({"q" + std::to_string(a), AttributeType::kNumeric,
                         AttributeRole::kQuasiIdentifier});
    domains.push_back(AttributeDomain::Numeric(0, 39));
    taxonomies.push_back(Taxonomy::Binary(40, "*"));
    for (int r = 0; r < 20000; ++r) {
      columns[a].push_back(rng.UniformInt(0, 39));
    }
  }
  Table table =
      Table::Create(schema, domains, std::move(columns)).ValueOrDie();
  std::vector<const Taxonomy*> tax_ptrs;
  for (const Taxonomy& t : taxonomies) tax_ptrs.push_back(&t);
  const int h = tax_ptrs[0]->height();
  ASSERT_EQ(RecodingAtDepths(qi_attrs, tax_ptrs, {h, h, h, h})
                .per_attr[0]
                .num_gen_values(),
            40);
  const size_t deep_cells =
      ComputeQiGroups(table, RecodingAtDepths(qi_attrs, tax_ptrs,
                                              {h, h, h, h - 1}))
          .num_groups();
  ASSERT_GT(uint64_t{deep_cells} * 40 * 4, columnar::kDenseTableBytes);
  const columnar::QiIndex index = columnar::QiIndex::Build(table, qi_attrs);
  const columnar::LatticeCounter counter(&index, tax_ptrs);
  for (const std::vector<int>& parent :
       {std::vector<int>{0, 0, 0, 0}, std::vector<int>{1, 0, 0, 0},
        std::vector<int>{2, 1, 0, 3}, std::vector<int>{h, h, h, h - 1},
        std::vector<int>{h, h - 1, h, h - 1}}) {
    for (int k : {1, 2, 5}) {
      ExpectChildrenMatchNaive(counter, table, qi_attrs, tax_ptrs, parent, k);
    }
  }
}

TEST(Phase2EquivalenceTest, LatticeCounterCrossesTheTableBudgetExactly) {
  // One flat attribute of domain 2,000 refines a parent of 300 cells: the
  // child pass keys 300 × 2,000 = 600k cells, past the flat table's
  // 4-byte slots in kDenseTableBytes. At k equal to the child's smallest
  // group the node is anonymous and at one more it is not, so the
  // hash-map path must count every row.
  Rng rng(2718);
  Schema schema;
  std::vector<AttributeDomain> domains;
  std::vector<Taxonomy> taxonomies;
  std::vector<int> qi_attrs = {0, 1};
  std::vector<std::vector<int32_t>> columns(2);
  for (int32_t width : {300, 2000}) {
    const int a = static_cast<int>(domains.size());
    schema.AddAttribute({"q" + std::to_string(a), AttributeType::kNumeric,
                         AttributeRole::kQuasiIdentifier});
    domains.push_back(AttributeDomain::Numeric(0, width - 1));
    taxonomies.push_back(Taxonomy::Flat(width, "*"));
  }
  for (int r = 0; r < 60000; ++r) {
    columns[0].push_back(r % 300);
    columns[1].push_back(rng.UniformInt(0, 9));
  }
  Table table =
      Table::Create(schema, domains, std::move(columns)).ValueOrDie();
  std::vector<const Taxonomy*> tax_ptrs;
  for (const Taxonomy& t : taxonomies) tax_ptrs.push_back(&t);
  ASSERT_GT(uint64_t{300} * 2000 * 4, columnar::kDenseTableBytes);
  const auto smallest = static_cast<int64_t>(
      ComputeQiGroups(table, RecodingAtDepths(qi_attrs, tax_ptrs, {1, 1}))
          .MinGroupSize());
  ASSERT_GT(smallest, 1);
  const columnar::QiIndex index = columnar::QiIndex::Build(table, qi_attrs);
  const columnar::LatticeCounter counter(&index, tax_ptrs);
  for (int64_t k : {int64_t{1}, smallest, smallest + 1}) {
    EXPECT_EQ(counter.AnonymousChildren({1, 0}, 0b10, static_cast<int>(k)),
              k <= smallest ? 0b10u : 0u)
        << "k=" << k;
  }
}

TEST(Phase2EquivalenceTest, LatticeCounterRefinesWideCellSpacesExactly) {
  // 8 flat attributes of domain 1000 at full depth: a 1000^8 cell key
  // overflows u64, but the fold numbers cells one attribute at a time, so
  // every key stays below 2^64. The oracle groups generalized vectors in
  // an ordered map (the row-wise ComputeQiGroups cannot key this node at
  // all).
  Rng rng(91);
  Schema schema;
  std::vector<AttributeDomain> domains;
  std::vector<Taxonomy> taxonomies;
  std::vector<int> qi_attrs;
  std::vector<std::vector<int32_t>> columns(8);
  for (int a = 0; a < 8; ++a) {
    schema.AddAttribute({"q" + std::to_string(a), AttributeType::kNumeric,
                         AttributeRole::kQuasiIdentifier});
    domains.push_back(AttributeDomain::Numeric(0, 999));
    taxonomies.push_back(Taxonomy::Flat(1000, "*"));
    qi_attrs.push_back(a);
    for (int r = 0; r < 3000; ++r) {
      columns[a].push_back(rng.UniformInt(0, a < 4 ? 1 : 2));
    }
  }
  Table table =
      Table::Create(schema, domains, std::move(columns)).ValueOrDie();
  std::vector<const Taxonomy*> tax_ptrs;
  for (const Taxonomy& t : taxonomies) tax_ptrs.push_back(&t);
  const columnar::QiIndex index = columnar::QiIndex::Build(table, qi_attrs);
  const columnar::LatticeCounter counter(&index, tax_ptrs);
  // (parent, the attribute its child specializes): the children are all
  // ones, and all ones but the last or the first attribute.
  const std::vector<std::pair<std::vector<int>, size_t>> probes = {
      {{1, 1, 1, 1, 1, 1, 1, 0}, 7},
      {{1, 1, 1, 1, 1, 1, 0, 0}, 6},
      {{0, 0, 1, 1, 1, 1, 1, 1}, 1}};
  for (const auto& [parent, j] : probes) {
    std::vector<int> depths = parent;
    ++depths[j];
    const GlobalRecoding rec = RecodingAtDepths(qi_attrs, tax_ptrs, depths);
    std::map<std::vector<int32_t>, int64_t> groups;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      ++groups[rec.GenVectorOfRow(table, r)];
    }
    int64_t smallest = INT64_MAX;
    for (const auto& [gen, count] : groups) {
      smallest = std::min(smallest, count);
    }
    const uint64_t bit = uint64_t{1} << j;
    for (int64_t k : {int64_t{1}, smallest, smallest + 1}) {
      EXPECT_EQ(counter.AnonymousChildren(parent, bit, static_cast<int>(k)),
                k <= smallest ? bit : 0u)
          << "k=" << k;
    }
  }
}

TEST(Phase2EquivalenceTest, LatticeCounterNcpMatchesGlobalNcp) {
  // Incognito scores a node from per-(attribute, depth) sums; the row-wise
  // GlobalNcp of the same recoding is the oracle, equal up to summation
  // order.
  Rng rng(1618);
  for (int trial = 0; trial < 200; ++trial) {
    const RandomLattice lat = MakeRandomLattice(rng);
    std::vector<const Taxonomy*> tax_ptrs;
    for (const Taxonomy& t : lat.taxonomies) tax_ptrs.push_back(&t);
    const columnar::QiIndex index =
        columnar::QiIndex::Build(lat.table, lat.qi_attrs);
    const columnar::LatticeCounter counter(&index, tax_ptrs);
    for (int probe = 0; probe < 4; ++probe) {
      std::vector<int> depths;
      for (size_t a = 0; a < lat.qi_attrs.size(); ++a) {
        depths.push_back(rng.UniformInt(0, tax_ptrs[a]->height() + 1));
      }
      EXPECT_NEAR(counter.NcpAtDepths(depths),
                  GlobalNcp(lat.table,
                            RecodingAtDepths(lat.qi_attrs, tax_ptrs, depths)),
                  1e-12)
          << "trial " << trial << " probe " << probe;
    }
  }
}

/// What the test-local reference walk found, and how Incognito's a-priori
/// candidate rule would have classified each child it decided.
struct ReferenceWalk {
  std::vector<int> best_depths;
  uint64_t nodes_examined = 0;
  uint64_t children_pruned = 0;
  uint64_t minimal_nodes = 0;
  uint64_t anonymity_checks = 0;  ///< Children the rule leaves to a fold.
  uint64_t checks_implied = 0;    ///< Children the rule decides outright.
  /// Implied non-anonymous children the oracle found anonymous. Must be 0.
  uint64_t implied_but_anonymous = 0;
};

/// The Incognito BFS without the candidate rule: every unseen child of a
/// level is checked with the naive row-wise ComputeQiGroups, memoized in a
/// map keyed by depths.
ReferenceWalk ReferenceIncognito(const Table& table,
                                 const std::vector<int>& qi_attrs,
                                 const std::vector<const Taxonomy*>& taxonomies,
                                 int k) {
  auto anonymous = [&](const std::vector<int>& depths) {
    return IsKAnonymous(
        ComputeQiGroups(table, RecodingAtDepths(qi_attrs, taxonomies, depths)),
        k);
  };

  ReferenceWalk out;
  const size_t d = qi_attrs.size();
  const std::vector<int> root(d, 0);
  std::map<std::vector<int>, bool> memo = {{root, anonymous(root)}};
  EXPECT_TRUE(memo.at(root));
  out.anonymity_checks = 1;
  std::vector<std::vector<int>> level = {root};
  std::set<std::vector<int>> visited = {root};
  double best_ncp = 2.0;
  while (!level.empty()) {
    for (const std::vector<int>& node : level) {
      for (size_t i = 0; i < d; ++i) {
        if (node[i] >= taxonomies[i]->height()) continue;
        std::vector<int> child = node;
        child[i]++;
        if (memo.count(child)) continue;
        bool parents_anonymous = true;
        for (size_t j = 0; j < d; ++j) {
          if (child[j] == 0) continue;
          std::vector<int> parent = child;
          parent[j]--;
          const auto it = memo.find(parent);
          if (it == memo.end() || !it->second) parents_anonymous = false;
        }
        const bool anon = anonymous(child);
        memo.emplace(child, anon);
        if (parents_anonymous) {
          ++out.anonymity_checks;
        } else {
          ++out.checks_implied;
          if (anon) ++out.implied_but_anonymous;
        }
      }
    }
    std::vector<std::vector<int>> next_level;
    for (const std::vector<int>& node : level) {
      ++out.nodes_examined;
      bool has_anonymous_child = false;
      for (size_t i = 0; i < d; ++i) {
        if (node[i] >= taxonomies[i]->height()) continue;
        std::vector<int> child = node;
        child[i]++;
        if (memo.at(child)) {
          has_anonymous_child = true;
          if (visited.insert(child).second) next_level.push_back(child);
        } else {
          ++out.children_pruned;
        }
      }
      if (!has_anonymous_child) {
        ++out.minimal_nodes;
        const double ncp =
            GlobalNcp(table, RecodingAtDepths(qi_attrs, taxonomies, node));
        if (out.best_depths.empty() || ncp < best_ncp) {
          best_ncp = ncp;
          out.best_depths = node;
        }
      }
    }
    level = std::move(next_level);
  }
  return out;
}

TEST(Phase2EquivalenceTest, IncognitoPruningMatchesReferenceWalk) {
  // Random small tables and k at 1 and 8 threads: the pruned search must
  // choose the reference walk's recoding, report its lattice counters,
  // fold exactly the children the candidate rule keeps, and every child
  // the rule implies non-anonymous must be non-anonymous.
  Rng rng(0x1ac0);
  ThreadPool pool(8);
  uint64_t total_checks = 0;
  uint64_t total_implied = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const int num_attrs = rng.UniformInt(2, 4);
    Schema schema;
    std::vector<AttributeDomain> domains;
    std::vector<Taxonomy> taxonomies;
    std::vector<int> qi_attrs;
    for (int a = 0; a < num_attrs; ++a) {
      const int32_t domain = rng.UniformInt(2, 12);
      schema.AddAttribute({"q" + std::to_string(a), AttributeType::kNumeric,
                           AttributeRole::kQuasiIdentifier});
      domains.push_back(AttributeDomain::Numeric(0, domain - 1));
      taxonomies.push_back(rng.UniformInt(0, 2) == 0
                               ? Taxonomy::Flat(domain, "*")
                               : Taxonomy::Binary(domain, "*"));
      qi_attrs.push_back(a);
    }
    const int k = rng.UniformInt(2, 10);
    const int num_rows = rng.UniformInt(k, 400);
    std::vector<std::vector<int32_t>> columns(num_attrs);
    for (int a = 0; a < num_attrs; ++a) {
      // Skew some attributes onto a prefix of their domain so lattices
      // mix anonymous and non-anonymous regions.
      const int32_t hi = rng.UniformInt(0, 1) == 0
                             ? domains[a].size() - 1
                             : (domains[a].size() - 1) / 2;
      for (int r = 0; r < num_rows; ++r) {
        columns[a].push_back(rng.UniformInt(0, hi));
      }
    }
    const Table table =
        Table::Create(schema, domains, std::move(columns)).ValueOrDie();
    std::vector<const Taxonomy*> tax_ptrs;
    for (const Taxonomy& t : taxonomies) tax_ptrs.push_back(&t);

    const ReferenceWalk ref = ReferenceIncognito(table, qi_attrs, tax_ptrs, k);
    EXPECT_EQ(ref.implied_but_anonymous, 0u) << "trial " << trial;
    total_checks += ref.anonymity_checks;
    total_implied += ref.checks_implied;
    const std::map<std::string, uint64_t> expected = {
        {"incognito.nodes_examined", ref.nodes_examined},
        {"incognito.children_pruned", ref.children_pruned},
        {"incognito.minimal_nodes", ref.minimal_nodes},
        {"incognito.anonymity_checks", ref.anonymity_checks},
        {"incognito.checks_implied", ref.checks_implied}};
    const GlobalRecoding expected_recoding =
        RecodingAtDepths(qi_attrs, tax_ptrs, ref.best_depths);
    for (int threads : {1, 8}) {
      const std::string label = "trial " + std::to_string(trial) + " " +
                                Label(threads) + " k=" + std::to_string(k);
      IncognitoOptions options;
      options.k = k;
      options.pool = threads == 1 ? nullptr : &pool;
      const std::map<std::string, uint64_t> before = SearchCounters();
      const GlobalRecoding recoding =
          IncognitoSearch(table, qi_attrs, tax_ptrs, options).ValueOrDie();
      std::map<std::string, uint64_t> delta =
          CounterDelta(before, SearchCounters());
      for (const auto& [name, value] : expected) {
        EXPECT_EQ(delta[name], value) << name << " " << label;
      }
      ASSERT_EQ(recoding.per_attr.size(), expected_recoding.per_attr.size());
      for (size_t a = 0; a < recoding.per_attr.size(); ++a) {
        EXPECT_EQ(recoding.per_attr[a].starts(),
                  expected_recoding.per_attr[a].starts())
            << "attr " << a << " " << label;
      }
    }
  }
  // The sweep must exercise both sides of the rule.
  EXPECT_GT(total_checks, 0u);
  EXPECT_GT(total_implied, 0u);
}

}  // namespace
}  // namespace pgpub
