#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>

#include "hierarchy/interval.h"
#include "hierarchy/recoding.h"
#include "hierarchy/taxonomy.h"
#include "hierarchy/taxonomy_io.h"

namespace pgpub {
namespace {

// --------------------------------------------------------------- Interval

TEST(IntervalTest, Basics) {
  Interval iv(3, 7);
  EXPECT_TRUE(iv.Contains(3));
  EXPECT_TRUE(iv.Contains(7));
  EXPECT_FALSE(iv.Contains(8));
  EXPECT_EQ(iv.width(), 5);
  EXPECT_FALSE(iv.IsSingleton());
  EXPECT_TRUE(Interval(4, 4).IsSingleton());
  EXPECT_EQ(iv.ToString(), "[3,7]");
  EXPECT_EQ(Interval(2, 2).ToString(), "2");
}

TEST(IntervalTest, CoversAndOverlaps) {
  Interval a(0, 9), b(3, 5), c(8, 12);
  EXPECT_TRUE(a.Covers(b));
  EXPECT_FALSE(b.Covers(a));
  EXPECT_TRUE(a.Overlaps(c));
  EXPECT_FALSE(b.Overlaps(c));
  EXPECT_TRUE(a == Interval(0, 9));
  EXPECT_TRUE(a != b);
}

// --------------------------------------------------------------- Taxonomy

void CheckTaxonomyInvariants(const Taxonomy& t) {
  // Root covers the domain at depth 0.
  EXPECT_EQ(t.node(t.root()).range, Interval(0, t.domain_size() - 1));
  EXPECT_EQ(t.node(t.root()).depth, 0);
  for (int id = 0; id < t.num_nodes(); ++id) {
    const TaxonomyNode& n = t.node(id);
    if (n.children.empty()) {
      EXPECT_TRUE(n.range.IsSingleton());
    } else {
      // Children partition the parent's range in order.
      int32_t expect_lo = n.range.lo;
      for (int c : n.children) {
        EXPECT_EQ(t.node(c).range.lo, expect_lo);
        EXPECT_EQ(t.node(c).parent, id);
        EXPECT_EQ(t.node(c).depth, n.depth + 1);
        expect_lo = t.node(c).range.hi + 1;
      }
      EXPECT_EQ(expect_lo, n.range.hi + 1);
    }
  }
  // Every code has a leaf.
  for (int32_t c = 0; c < t.domain_size(); ++c) {
    const TaxonomyNode& leaf = t.node(t.LeafOf(c));
    EXPECT_TRUE(leaf.children.empty());
    EXPECT_EQ(leaf.range, Interval(c, c));
  }
}

TEST(TaxonomyTest, FlatInvariants) {
  Taxonomy t = Taxonomy::Flat(5, "*");
  CheckTaxonomyInvariants(t);
  EXPECT_EQ(t.height(), 1);
  EXPECT_EQ(t.num_nodes(), 6);
}

TEST(TaxonomyTest, FlatSingletonDomain) {
  Taxonomy t = Taxonomy::Flat(1, "*");
  CheckTaxonomyInvariants(t);
  EXPECT_EQ(t.num_nodes(), 1);
  EXPECT_EQ(t.height(), 0);
}

TEST(TaxonomyTest, BinaryInvariants) {
  for (int32_t n : {2, 3, 7, 16, 68}) {
    Taxonomy t = Taxonomy::Binary(n, "*");
    CheckTaxonomyInvariants(t);
    EXPECT_EQ(t.num_nodes(), 2 * n - 1) << "binary tree node count";
  }
}

TEST(TaxonomyTest, UniformLevelsInvariants) {
  Taxonomy t = Taxonomy::UniformLevels(68, "*", {20, 10, 5}).ValueOrDie();
  CheckTaxonomyInvariants(t);
  // Root children: widths 20,20,20,8.
  const auto& root = t.node(t.root());
  ASSERT_EQ(root.children.size(), 4u);
  EXPECT_EQ(t.node(root.children[0]).range, Interval(0, 19));
  EXPECT_EQ(t.node(root.children[3]).range, Interval(60, 67));
}

TEST(TaxonomyTest, UniformLevelsRejectsBadWidths) {
  EXPECT_FALSE(Taxonomy::UniformLevels(10, "*", {0}).ok());
  EXPECT_FALSE(Taxonomy::UniformLevels(10, "*", {5, 7}).ok());
  EXPECT_FALSE(Taxonomy::UniformLevels(10, "*", {20}).ok());
}

TEST(TaxonomyTest, FromSpecGroupsAndLabels) {
  auto spec = Taxonomy::Spec::Internal(
      "*", {Taxonomy::Spec::Group("low", 3), Taxonomy::Spec::Group("high", 2)});
  Taxonomy t = Taxonomy::FromSpec(spec).ValueOrDie();
  CheckTaxonomyInvariants(t);
  EXPECT_EQ(t.domain_size(), 5);
  EXPECT_EQ(t.LabelFor(Interval(0, 2)), "low");
  EXPECT_EQ(t.LabelFor(Interval(3, 4)), "high");
  EXPECT_EQ(t.LabelFor(Interval(0, 4)), "*");
  // No node matches [1,3].
  EXPECT_EQ(t.FindNode(Interval(1, 3)), -1);
}

TEST(TaxonomyTest, FromSpecRejectsBadSpecs) {
  EXPECT_FALSE(Taxonomy::FromSpec(Taxonomy::Spec::Group("empty", 0)).ok());
  auto bad = Taxonomy::Spec::Internal(
      "*", {Taxonomy::Spec::Group("x", 2)});
  bad.leaf_count = 3;  // internal node must not set leaf_count
  EXPECT_FALSE(Taxonomy::FromSpec(bad).ok());
}

TEST(TaxonomyTest, CutAtDepthPartitionsDomain) {
  Taxonomy t = Taxonomy::Binary(11, "*");
  for (int d = 0; d <= t.height(); ++d) {
    std::vector<int> cut = t.CutAtDepth(d);
    int32_t expect_lo = 0;
    for (int id : cut) {
      EXPECT_EQ(t.node(id).range.lo, expect_lo);
      expect_lo = t.node(id).range.hi + 1;
    }
    EXPECT_EQ(expect_lo, t.domain_size());
  }
  EXPECT_EQ(t.CutAtDepth(0).size(), 1u);
  EXPECT_EQ(t.CutAtDepth(t.height()).size(),
            static_cast<size_t>(t.domain_size()));
}

TEST(TaxonomyTest, FindNodeExactMatchOnly) {
  Taxonomy t = Taxonomy::Binary(8, "*");
  EXPECT_EQ(t.node(t.FindNode(Interval(0, 7))).depth, 0);
  EXPECT_GE(t.FindNode(Interval(0, 3)), 0);
  EXPECT_GE(t.FindNode(Interval(4, 7)), 0);
  EXPECT_EQ(t.FindNode(Interval(1, 6)), -1);
  EXPECT_GE(t.FindNode(Interval(5, 5)), 0);
}

// ------------------------------------------------------ AttributeRecoding

TEST(RecodingTest, SingleAndIdentity) {
  AttributeRecoding single = AttributeRecoding::Single(6);
  EXPECT_EQ(single.num_gen_values(), 1);
  for (int32_t c = 0; c < 6; ++c) EXPECT_EQ(single.GenOf(c), 0);
  EXPECT_EQ(single.GenInterval(0), Interval(0, 5));

  AttributeRecoding id = AttributeRecoding::Identity(4);
  EXPECT_EQ(id.num_gen_values(), 4);
  for (int32_t c = 0; c < 4; ++c) {
    EXPECT_EQ(id.GenOf(c), c);
    EXPECT_EQ(id.GenInterval(c), Interval(c, c));
  }
}

TEST(RecodingTest, FromStartsValidation) {
  EXPECT_TRUE(AttributeRecoding::FromStarts(10, {0, 3, 7}).ok());
  EXPECT_FALSE(AttributeRecoding::FromStarts(10, {1, 3}).ok());
  EXPECT_FALSE(AttributeRecoding::FromStarts(10, {0, 3, 3}).ok());
  EXPECT_FALSE(AttributeRecoding::FromStarts(10, {0, 10}).ok());
  EXPECT_FALSE(AttributeRecoding::FromStarts(0, {0}).ok());
}

TEST(RecodingTest, GenOfMatchesIntervals) {
  AttributeRecoding r = AttributeRecoding::FromStarts(10, {0, 3, 7})
                            .ValueOrDie();
  EXPECT_EQ(r.num_gen_values(), 3);
  EXPECT_EQ(r.GenInterval(0), Interval(0, 2));
  EXPECT_EQ(r.GenInterval(1), Interval(3, 6));
  EXPECT_EQ(r.GenInterval(2), Interval(7, 9));
  for (int32_t c = 0; c < 10; ++c) {
    EXPECT_TRUE(r.GenInterval(r.GenOf(c)).Contains(c));
  }
}

TEST(RecodingTest, SplitAtRefines) {
  AttributeRecoding r = AttributeRecoding::Single(10);
  r.SplitAt(4);
  EXPECT_EQ(r.num_gen_values(), 2);
  EXPECT_EQ(r.GenInterval(0), Interval(0, 3));
  EXPECT_EQ(r.GenInterval(1), Interval(4, 9));
  r.SplitAt(4);  // idempotent
  EXPECT_EQ(r.num_gen_values(), 2);
  r.SplitAt(8);
  EXPECT_EQ(r.GenInterval(2), Interval(8, 9));
}

TEST(RecodingTest, RenderUsesSemanticLabelsButNotCodeIntervals) {
  AttributeDomain domain = AttributeDomain::Numeric(21, 80);
  // Semantic taxonomy label.
  auto spec = Taxonomy::Spec::Internal(
      "*", {Taxonomy::Spec::Group("young", 30),
            Taxonomy::Spec::Group("old", 30)});
  Taxonomy named = Taxonomy::FromSpec(spec).ValueOrDie();
  AttributeRecoding r = AttributeRecoding::FromStarts(60, {0, 30})
                            .ValueOrDie();
  EXPECT_EQ(r.Render(0, domain, &named), "young");
  // Auto-generated labels ("[0,29]") must fall back to domain values.
  Taxonomy autogen = Taxonomy::Binary(60, "*");
  EXPECT_EQ(r.Render(0, domain, &autogen), "[21, 50]");
  EXPECT_EQ(r.Render(1, domain, nullptr), "[51, 80]");
}

TEST(RecodingTest, RenderSingleton) {
  AttributeDomain domain = AttributeDomain::Numeric(5, 9);
  AttributeRecoding r = AttributeRecoding::Identity(5);
  EXPECT_EQ(r.Render(2, domain, nullptr), "7");
}

// --------------------------------------------------------- GlobalRecoding

TEST(GlobalRecodingTest, SignaturesSeparateCells) {
  Schema schema;
  schema.AddAttribute(
      {"a", AttributeType::kNumeric, AttributeRole::kQuasiIdentifier});
  schema.AddAttribute(
      {"b", AttributeType::kNumeric, AttributeRole::kQuasiIdentifier});
  std::vector<AttributeDomain> domains = {AttributeDomain::Numeric(0, 3),
                                          AttributeDomain::Numeric(0, 3)};
  Table t = Table::Create(schema, domains,
                          {{0, 1, 2, 3}, {0, 1, 2, 3}})
                .ValueOrDie();

  GlobalRecoding g = GlobalRecoding::AllIdentity(t, {0, 1});
  EXPECT_EQ(g.NumCells(), 16u);
  std::set<uint64_t> keys;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    keys.insert(g.SignatureOfRow(t, r));
  }
  EXPECT_EQ(keys.size(), 4u);

  GlobalRecoding coarse = GlobalRecoding::AllSingle(t, {0, 1});
  EXPECT_EQ(coarse.NumCells(), 1u);
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(coarse.SignatureOfRow(t, r), 0u);
  }
}

TEST(GlobalRecodingTest, SignatureOfCodesMatchesRow) {
  Schema schema;
  schema.AddAttribute(
      {"a", AttributeType::kNumeric, AttributeRole::kQuasiIdentifier});
  schema.AddAttribute(
      {"b", AttributeType::kNumeric, AttributeRole::kQuasiIdentifier});
  std::vector<AttributeDomain> domains = {AttributeDomain::Numeric(0, 9),
                                          AttributeDomain::Numeric(0, 9)};
  Table t =
      Table::Create(schema, domains, {{2, 7}, {5, 3}}).ValueOrDie();
  GlobalRecoding g;
  g.qi_attrs = {0, 1};
  g.per_attr = {AttributeRecoding::FromStarts(10, {0, 5}).ValueOrDie(),
                AttributeRecoding::FromStarts(10, {0, 2, 8}).ValueOrDie()};
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(g.SignatureOfRow(t, r),
              g.SignatureOfCodes({t.value(r, 0), t.value(r, 1)}));
  }
  EXPECT_EQ(g.GenVectorOfRow(t, 0), (std::vector<int32_t>{0, 1}));
  EXPECT_EQ(g.GenVectorOfRow(t, 1), (std::vector<int32_t>{1, 1}));
}

TEST(GlobalRecodingTest, NumCellsSaturatesWhenSignaturesCannotFit) {
  GlobalRecoding g;
  for (int i = 0; i < 7; ++i) {
    g.qi_attrs.push_back(i);
    g.per_attr.push_back(AttributeRecoding::Identity(1000));
  }
  EXPECT_EQ(g.NumCells(), UINT64_MAX);  // 1000^7 > 2^64
  g.qi_attrs.pop_back();
  g.per_attr.pop_back();
  EXPECT_EQ(g.NumCells(), uint64_t{1000000000000000000});
}

// ----------------------------------------------- FromNodes / Audit

namespace {
/// Root over [0,3] with two internal children and four singleton leaves —
/// the smallest taxonomy exercising every structural invariant.
std::vector<TaxonomyNode> GoodNodes() {
  auto node = [](int parent, int32_t lo, int32_t hi, const char* label) {
    TaxonomyNode n;
    n.parent = parent;
    n.range = Interval(lo, hi);
    n.label = label;
    return n;
  };
  return {node(-1, 0, 3, "*"),    node(0, 0, 1, "low"),
          node(0, 2, 3, "high"),  node(1, 0, 0, "0"),
          node(1, 1, 1, "1"),     node(2, 2, 2, "2"),
          node(2, 3, 3, "3")};
}
}  // namespace

TEST(TaxonomyFromNodesTest, BuildsAndAuditsCleanly) {
  Taxonomy taxonomy = Taxonomy::FromNodes(GoodNodes()).ValueOrDie();
  EXPECT_TRUE(taxonomy.Audit().ok());
  EXPECT_EQ(taxonomy.domain_size(), 4);
  EXPECT_EQ(taxonomy.height(), 2);
  EXPECT_EQ(taxonomy.LeafOf(2), 5);
  EXPECT_EQ(taxonomy.node(1).children, (std::vector<int>{3, 4}));
}

TEST(TaxonomyFromNodesTest, RecomputesDepthsAndChildren) {
  std::vector<TaxonomyNode> nodes = GoodNodes();
  for (TaxonomyNode& n : nodes) {
    n.depth = 77;                    // garbage in
    n.children = {1, 2, 3, 4, 5};    // garbage in
  }
  Taxonomy taxonomy = Taxonomy::FromNodes(std::move(nodes)).ValueOrDie();
  EXPECT_EQ(taxonomy.node(0).depth, 0);
  EXPECT_EQ(taxonomy.node(6).depth, 2);
}

TEST(TaxonomyFromNodesTest, RejectsStructuralViolations) {
  {
    std::vector<TaxonomyNode> nodes = GoodNodes();
    nodes[0].parent = 3;  // root must have parent -1
    EXPECT_TRUE(
        Taxonomy::FromNodes(std::move(nodes)).status().IsInvalidArgument());
  }
  {
    std::vector<TaxonomyNode> nodes = GoodNodes();
    nodes[2].parent = 5;  // forward reference
    EXPECT_TRUE(
        Taxonomy::FromNodes(std::move(nodes)).status().IsInvalidArgument());
  }
  {
    std::vector<TaxonomyNode> nodes = GoodNodes();
    nodes[2].range = Interval(1, 3);  // overlaps sibling "low"
    EXPECT_TRUE(
        Taxonomy::FromNodes(std::move(nodes)).status().IsInvalidArgument());
  }
  {
    std::vector<TaxonomyNode> nodes = GoodNodes();
    nodes[2].range = Interval(3, 3);  // gap: code 2 uncovered
    EXPECT_TRUE(
        Taxonomy::FromNodes(std::move(nodes)).status().IsInvalidArgument());
  }
  {
    std::vector<TaxonomyNode> nodes = GoodNodes();
    nodes.pop_back();  // "high" keeps children but loses coverage of 3
    EXPECT_TRUE(
        Taxonomy::FromNodes(std::move(nodes)).status().IsInvalidArgument());
  }
  {
    // Non-singleton leaf: drop the leaves under "high".
    std::vector<TaxonomyNode> nodes = GoodNodes();
    nodes.resize(5);
    EXPECT_TRUE(
        Taxonomy::FromNodes(std::move(nodes)).status().IsInvalidArgument());
  }
  {
    EXPECT_TRUE(
        Taxonomy::FromNodes({}).status().IsInvalidArgument());
  }
}

// ------------------------------------------------------ taxonomy file I/O

namespace {
std::string WriteTempTaxonomy(const std::string& name,
                              const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << text;
  return path;
}
}  // namespace

TEST(TaxonomyIoTest, SaveLoadRoundTrip) {
  Taxonomy original = Taxonomy::Binary(11, "age");
  const std::string path = ::testing::TempDir() + "/pgpub_tax_rt.txt";
  ASSERT_TRUE(SaveTaxonomy(original, path).ok());
  Taxonomy loaded = LoadTaxonomy(path).ValueOrDie();
  ASSERT_EQ(loaded.num_nodes(), original.num_nodes());
  for (int id = 0; id < original.num_nodes(); ++id) {
    EXPECT_EQ(loaded.node(id).parent, original.node(id).parent);
    EXPECT_EQ(loaded.node(id).range, original.node(id).range);
    EXPECT_EQ(loaded.node(id).label, original.node(id).label);
    EXPECT_EQ(loaded.node(id).depth, original.node(id).depth);
  }
  EXPECT_TRUE(loaded.Audit().ok());
  std::remove(path.c_str());
}

TEST(TaxonomyIoTest, MissingFileIsIOError) {
  EXPECT_TRUE(LoadTaxonomy("/nonexistent/t.txt").status().IsIOError());
}

TEST(TaxonomyIoTest, MalformedFilesFailWithInvalidArgument) {
  struct Case {
    const char* name;
    const char* text;
  };
  const Case cases[] = {
      {"bad_header", "not-a-taxonomy\n"},
      {"missing_counts", "pgpub-taxonomy v1\n"},
      {"bad_counts", "pgpub-taxonomy v1\ndomain 0 nodes 3\n"},
      {"truncated",
       "pgpub-taxonomy v1\ndomain 2 nodes 3\nnode -1 0 1 *\n"},
      {"bad_node_line",
       "pgpub-taxonomy v1\ndomain 2 nodes 3\nnode -1 0 1 *\n"
       "node zero 0 0 a\nnode 0 1 1 b\n"},
      {"domain_mismatch",
       "pgpub-taxonomy v1\ndomain 5 nodes 3\nnode -1 0 1 *\n"
       "node 0 0 0 a\nnode 0 1 1 b\n"},
      {"broken_structure",
       "pgpub-taxonomy v1\ndomain 2 nodes 3\nnode -1 0 1 *\n"
       "node 0 0 0 a\nnode 0 0 0 dup\n"},
  };
  for (const Case& c : cases) {
    const std::string path =
        WriteTempTaxonomy(std::string("pgpub_tax_") + c.name + ".txt",
                          c.text);
    Status st = LoadTaxonomy(path).status();
    EXPECT_TRUE(st.IsInvalidArgument())
        << c.name << ": " << st.ToString();
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace pgpub
