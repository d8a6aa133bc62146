#include <gtest/gtest.h>

#include <cstdio>

#include "common/csv.h"
#include "table/csv_io.h"
#include "table/dictionary.h"
#include "table/domain.h"
#include "table/schema.h"
#include "table/table.h"

namespace pgpub {
namespace {

Schema TwoColumnSchema() {
  Schema schema;
  schema.AddAttribute(
      {"Age", AttributeType::kNumeric, AttributeRole::kQuasiIdentifier});
  schema.AddAttribute(
      {"Disease", AttributeType::kCategorical, AttributeRole::kSensitive});
  return schema;
}

// ---------------------------------------------------------------- Schema

TEST(SchemaTest, IndexOfFindsAttributes) {
  Schema s = TwoColumnSchema();
  EXPECT_EQ(*s.IndexOf("Age"), 0);
  EXPECT_EQ(*s.IndexOf("Disease"), 1);
  EXPECT_TRUE(s.IndexOf("Nope").status().IsNotFound());
}

TEST(SchemaTest, QiIndicesInOrder) {
  Schema s;
  s.AddAttribute({"a", AttributeType::kNumeric, AttributeRole::kRegular});
  s.AddAttribute(
      {"b", AttributeType::kNumeric, AttributeRole::kQuasiIdentifier});
  s.AddAttribute(
      {"c", AttributeType::kCategorical, AttributeRole::kQuasiIdentifier});
  EXPECT_EQ(s.QiIndices(), (std::vector<int>{1, 2}));
}

TEST(SchemaTest, SensitiveIndexRequiresExactlyOne) {
  Schema none;
  none.AddAttribute(
      {"a", AttributeType::kNumeric, AttributeRole::kQuasiIdentifier});
  EXPECT_TRUE(none.SensitiveIndex().status().IsFailedPrecondition());

  Schema two = TwoColumnSchema();
  two.AddAttribute(
      {"x", AttributeType::kCategorical, AttributeRole::kSensitive});
  EXPECT_TRUE(two.SensitiveIndex().status().IsFailedPrecondition());

  EXPECT_EQ(*TwoColumnSchema().SensitiveIndex(), 1);
}

// ------------------------------------------------------------ Dictionary

TEST(DictionaryTest, AssignsDenseCodesInOrder) {
  Dictionary d;
  EXPECT_EQ(d.GetOrAdd("flu"), 0);
  EXPECT_EQ(d.GetOrAdd("cold"), 1);
  EXPECT_EQ(d.GetOrAdd("flu"), 0);
  EXPECT_EQ(d.size(), 2);
  EXPECT_EQ(d.ValueOf(1), "cold");
}

TEST(DictionaryTest, LookupMissingIsNotFound) {
  Dictionary d;
  d.GetOrAdd("x");
  EXPECT_TRUE(d.Lookup("y").status().IsNotFound());
  EXPECT_EQ(*d.Lookup("x"), 0);
}

// ---------------------------------------------------------------- Domain

TEST(DomainTest, NumericEncodeDecode) {
  AttributeDomain d = AttributeDomain::Numeric(10, 20);
  EXPECT_EQ(d.size(), 11);
  EXPECT_EQ(*d.EncodeNumeric(10), 0);
  EXPECT_EQ(*d.EncodeNumeric(20), 10);
  EXPECT_EQ(d.DecodeNumeric(5), 15);
  EXPECT_TRUE(d.EncodeNumeric(9).status().IsOutOfRange());
  EXPECT_TRUE(d.EncodeNumeric(21).status().IsOutOfRange());
}

TEST(DomainTest, NumericEncodeString) {
  AttributeDomain d = AttributeDomain::Numeric(0, 5);
  EXPECT_EQ(*d.EncodeString("3"), 3);
  EXPECT_TRUE(d.EncodeString("junk").status().IsInvalidArgument());
  EXPECT_EQ(d.CodeToString(4), "4");
}

TEST(DomainTest, CategoricalGrowAndRender) {
  AttributeDomain d = AttributeDomain::Categorical({"a", "b"});
  EXPECT_EQ(d.size(), 2);
  EXPECT_EQ(*d.EncodeString("b"), 1);
  EXPECT_TRUE(d.EncodeString("c").status().IsNotFound());
  EXPECT_EQ(*d.EncodeStringGrow("c"), 2);
  EXPECT_EQ(d.CodeToString(2), "c");
}

// ---------------------------------------------------------------- Table

TEST(TableTest, CreateValidatesShape) {
  Schema s = TwoColumnSchema();
  std::vector<AttributeDomain> domains = {
      AttributeDomain::Numeric(0, 9),
      AttributeDomain::Categorical({"flu", "cold"})};
  // Wrong column count.
  EXPECT_TRUE(Table::Create(s, domains, {{0, 1}}).status().ok() == false);
  // Ragged columns.
  EXPECT_FALSE(
      Table::Create(s, domains, {{0, 1}, {0}}).status().ok());
  // Code out of domain: QI, sensitive past the end, negative sensitive.
  for (const std::vector<std::vector<int32_t>>& columns :
       std::vector<std::vector<std::vector<int32_t>>>{
           {{0, 12}, {0, 1}}, {{0, 1}, {0, 2}}, {{0, 1}, {-1, 0}}}) {
    EXPECT_TRUE(Table::Create(s, domains, columns).status().IsOutOfRange());
  }
  // Valid.
  EXPECT_TRUE(Table::Create(s, domains, {{0, 1}, {1, 0}}).ok());
}

TEST(TableTest, AccessorsAndHistogram) {
  Schema s = TwoColumnSchema();
  std::vector<AttributeDomain> domains = {
      AttributeDomain::Numeric(18, 27),
      AttributeDomain::Categorical({"flu", "cold"})};
  Table t =
      Table::Create(s, domains, {{0, 5, 5}, {1, 1, 0}}).ValueOrDie();
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_attributes(), 2);
  EXPECT_EQ(t.value(1, 0), 5);
  EXPECT_EQ(t.ValueToString(1, 0), "23");
  EXPECT_EQ(t.ValueToString(0, 1), "cold");
  EXPECT_EQ(t.Histogram(0), (std::vector<int64_t>{1, 0, 0, 0, 0, 2, 0, 0,
                                                  0, 0}));
  EXPECT_EQ(t.Row(2), (std::vector<int32_t>{5, 0}));
}

TEST(TableTest, SelectRowsPreservesOrderAndDuplicates) {
  Schema s = TwoColumnSchema();
  std::vector<AttributeDomain> domains = {
      AttributeDomain::Numeric(0, 9),
      AttributeDomain::Categorical({"a", "b", "c"})};
  Table t = Table::Create(s, domains, {{1, 2, 3}, {0, 1, 2}}).ValueOrDie();
  Table sub = t.SelectRows({2, 0, 2});
  EXPECT_EQ(sub.num_rows(), 3u);
  EXPECT_EQ(sub.value(0, 0), 3);
  EXPECT_EQ(sub.value(1, 0), 1);
  EXPECT_EQ(sub.value(2, 0), 3);
}

// ----------------------------------------------------------- TableBuilder

TEST(TableBuilderTest, InfersNumericRange) {
  TableBuilder builder(TwoColumnSchema());
  ASSERT_TRUE(builder.AddRow({"25", "flu"}).ok());
  ASSERT_TRUE(builder.AddRow({"30", "cold"}).ok());
  ASSERT_TRUE(builder.AddRow({"27", "flu"}).ok());
  Table t = builder.Build().ValueOrDie();
  EXPECT_EQ(t.domain(0).min_value(), 25);
  EXPECT_EQ(t.domain(0).max_value(), 30);
  EXPECT_EQ(t.value(0, 0), 0);
  EXPECT_EQ(t.value(1, 0), 5);
  EXPECT_EQ(t.domain(1).size(), 2);
}

TEST(TableBuilderTest, RejectsBadWidthAndBadNumber) {
  TableBuilder builder(TwoColumnSchema());
  EXPECT_TRUE(builder.AddRow({"25"}).IsInvalidArgument());
  EXPECT_TRUE(builder.AddRow({"notanumber", "flu"}).IsInvalidArgument());
}

TEST(TableBuilderTest, FixedDomainsValidateRange) {
  std::vector<AttributeDomain> domains = {
      AttributeDomain::Numeric(0, 10), AttributeDomain::Categorical()};
  TableBuilder builder(TwoColumnSchema(), domains);
  EXPECT_TRUE(builder.AddRow({"5", "flu"}).ok());
  EXPECT_TRUE(builder.AddRow({"11", "flu"}).IsOutOfRange());
}

// ---------------------------------------------------------------- CSV IO

TEST(CsvIoTest, RoundTrip) {
  Schema s = TwoColumnSchema();
  std::vector<AttributeDomain> domains = {
      AttributeDomain::Numeric(20, 29),
      AttributeDomain::Categorical({"flu", "cold"})};
  Table t = Table::Create(s, domains, {{0, 9}, {1, 0}}).ValueOrDie();

  const std::string path = ::testing::TempDir() + "/pgpub_table.csv";
  ASSERT_TRUE(SaveCsv(t, path).ok());
  Table loaded = LoadCsv(path, s).ValueOrDie();
  ASSERT_EQ(loaded.num_rows(), 2u);
  EXPECT_EQ(loaded.ValueToString(0, 0), "20");
  EXPECT_EQ(loaded.ValueToString(1, 1), "flu");
  std::remove(path.c_str());
}

TEST(CsvIoTest, MissingColumnFails) {
  const std::string path = ::testing::TempDir() + "/pgpub_missing.csv";
  ASSERT_TRUE(Csv::WriteFile(path, {"Age"}, {{"25"}}).ok());
  EXPECT_TRUE(LoadCsv(path, TwoColumnSchema()).status().IsInvalidArgument());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pgpub
