#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>

#include "common/csv.h"
#include "common/math_util.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"

namespace pgpub {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::Unimplemented("x").IsUnimplemented());
  EXPECT_EQ(Status::NotFound("thing").message(), "thing");
}

TEST(StatusTest, ToStringIncludesCodeName) {
  EXPECT_EQ(Status::InvalidArgument("bad k").ToString(),
            "InvalidArgument: bad k");
}

TEST(StatusTest, WithContextPrepends) {
  Status s = Status::IOError("disk on fire").WithContext("loading CSV");
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(s.message(), "loading CSV: disk on fire");
}

TEST(StatusTest, WithContextOnOkIsNoop) {
  EXPECT_TRUE(Status::OK().WithContext("ctx").ok());
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
}

// ---------------------------------------------------------------- Result

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = Half(10);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 5);
  EXPECT_EQ(r.ValueOrDie(), 5);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Half(3);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  auto chain = [](int x) -> Result<int> {
    ASSIGN_OR_RETURN(int h, Half(x));
    return h + 1;
  };
  EXPECT_EQ(*chain(8), 5);
  EXPECT_TRUE(chain(9).status().IsInvalidArgument());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string moved = std::move(r).ValueOrDie();
  EXPECT_EQ(moved, "payload");
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next64() == b.Next64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformU64RespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformU64(13), 13u);
  }
}

TEST(RngTest, UniformU64IsRoughlyUniform) {
  Rng rng(99);
  const int bins = 10, draws = 100000;
  std::vector<int> counts(bins, 0);
  for (int i = 0; i < draws; ++i) counts[rng.UniformU64(bins)]++;
  for (int c : counts) {
    EXPECT_NEAR(c, draws / bins, 5 * std::sqrt(draws / bins));
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.UniformDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(RngTest, GaussianMomentsAreStandard) {
  Rng rng(23);
  double sum = 0, sum_sq = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, DiscreteFollowsWeights) {
  Rng rng(31);
  std::vector<double> w = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[rng.Discrete(w)]++;
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.01);
}

TEST(RngTest, DiscreteSkipsZeroWeights) {
  Rng rng(37);
  std::vector<double> w = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Discrete(w), 1u);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(41);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(43);
  for (size_t n : {0ul, 1ul, 5ul, 50ul, 100ul}) {
    auto s = rng.SampleWithoutReplacement(100, n);
    std::set<size_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), n);
    for (size_t x : s) EXPECT_LT(x, 100u);
  }
}

TEST(RngTest, SampleWithoutReplacementFullUniverse) {
  Rng rng(47);
  auto s = rng.SampleWithoutReplacement(10, 10);
  std::set<size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 10u);
}

TEST(RngTest, SampleWithoutReplacementIsUnbiased) {
  Rng rng(53);
  std::vector<int> hit(20, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    for (size_t idx : rng.SampleWithoutReplacement(20, 5)) hit[idx]++;
  }
  for (int h : hit) {
    EXPECT_NEAR(h / static_cast<double>(trials), 0.25, 0.02);
  }
}

// ---------------------------------------------------------------- strings

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x", ','), (std::vector<std::string>{"x"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  a b  "), "a b");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t\n "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringUtilTest, ParseInt64) {
  EXPECT_EQ(*ParseInt64("42"), 42);
  EXPECT_EQ(*ParseInt64("  -7 "), -7);
  EXPECT_TRUE(ParseInt64("4x").status().IsInvalidArgument());
  EXPECT_TRUE(ParseInt64("").status().IsInvalidArgument());
  EXPECT_TRUE(ParseInt64("99999999999999999999").status().IsOutOfRange());
}

TEST(StringUtilTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(*ParseDouble("0.25"), 0.25);
  EXPECT_DOUBLE_EQ(*ParseDouble("-1e3"), -1000.0);
  EXPECT_TRUE(ParseDouble("abc").status().IsInvalidArgument());
  EXPECT_TRUE(ParseDouble("").status().IsInvalidArgument());
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("%.2f", 0.5), "0.50");
}

TEST(StringUtilTest, StartsWithAndToLower) {
  EXPECT_TRUE(StartsWith("abcdef", "abc"));
  EXPECT_FALSE(StartsWith("ab", "abc"));
  EXPECT_EQ(ToLower("MiXeD"), "mixed");
}

// ---------------------------------------------------------------- math

TEST(MathUtilTest, EntropyOfUniformIsLogN) {
  EXPECT_NEAR(EntropyFromCounts({1, 1, 1, 1}), 2.0, 1e-12);
  EXPECT_NEAR(EntropyFromCounts({5, 5}), 1.0, 1e-12);
}

TEST(MathUtilTest, EntropyOfPointMassIsZero) {
  EXPECT_DOUBLE_EQ(EntropyFromCounts({7, 0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(EntropyFromCounts({}), 0.0);
  EXPECT_DOUBLE_EQ(EntropyFromCounts({0, 0}), 0.0);
}

TEST(MathUtilTest, GiniBounds) {
  EXPECT_DOUBLE_EQ(GiniFromCounts({5, 0}), 0.0);
  EXPECT_NEAR(GiniFromCounts({5, 5}), 0.5, 1e-12);
  EXPECT_NEAR(GiniFromCounts({1, 1, 1, 1}), 0.75, 1e-12);
}

TEST(MathUtilTest, Clamp) {
  EXPECT_DOUBLE_EQ(Clamp(5, 0, 1), 1);
  EXPECT_DOUBLE_EQ(Clamp(-5, 0, 1), 0);
  EXPECT_DOUBLE_EQ(Clamp(0.5, 0, 1), 0.5);
}

TEST(MathUtilTest, KahanSumAccurate) {
  std::vector<double> v(1000000, 0.1);
  EXPECT_NEAR(KahanSum(v), 100000.0, 1e-6);
}

TEST(MathUtilTest, NormalizeInPlace) {
  std::vector<double> v = {1, 3};
  ASSERT_TRUE(NormalizeInPlace(v));
  EXPECT_DOUBLE_EQ(v[0], 0.25);
  EXPECT_DOUBLE_EQ(v[1], 0.75);
  std::vector<double> zeros = {0, 0};
  EXPECT_FALSE(NormalizeInPlace(zeros));
}

TEST(MathUtilTest, L1Distance) {
  EXPECT_DOUBLE_EQ(L1Distance({1, 0}, {0, 1}), 2.0);
  EXPECT_DOUBLE_EQ(L1Distance({0.5, 0.5}, {0.5, 0.5}), 0.0);
}

// ---------------------------------------------------------------- CSV

TEST(CsvTest, ParseSimpleLine) {
  auto fields = Csv::ParseLine("a,b,c").ValueOrDie();
  EXPECT_EQ(fields, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CsvTest, ParseQuotedFields) {
  auto fields = Csv::ParseLine("\"a,b\",\"say \"\"hi\"\"\",c").ValueOrDie();
  EXPECT_EQ(fields,
            (std::vector<std::string>{"a,b", "say \"hi\"", "c"}));
}

TEST(CsvTest, ParseEmptyFields) {
  auto fields = Csv::ParseLine(",,").ValueOrDie();
  EXPECT_EQ(fields, (std::vector<std::string>{"", "", ""}));
}

TEST(CsvTest, RejectsUnterminatedQuote) {
  EXPECT_TRUE(Csv::ParseLine("\"oops").status().IsInvalidArgument());
}

TEST(CsvTest, RejectsMidFieldQuote) {
  EXPECT_TRUE(Csv::ParseLine("ab\"cd\"").status().IsInvalidArgument());
}

TEST(CsvTest, EscapeField) {
  EXPECT_EQ(Csv::EscapeField("plain"), "plain");
  EXPECT_EQ(Csv::EscapeField("a,b"), "\"a,b\"");
  EXPECT_EQ(Csv::EscapeField("q\"q"), "\"q\"\"q\"");
}

TEST(CsvTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/pgpub_csv_test.csv";
  std::vector<std::string> header = {"x", "note"};
  std::vector<std::vector<std::string>> rows = {
      {"1", "hello"}, {"2", "with,comma"}, {"3", "with \"quote\""}};
  ASSERT_TRUE(Csv::WriteFile(path, header, rows).ok());
  auto file = Csv::ReadFile(path).ValueOrDie();
  EXPECT_EQ(file.header, header);
  EXPECT_EQ(file.rows, rows);
  std::remove(path.c_str());
}

TEST(CsvTest, ReadMissingFileIsIOError) {
  EXPECT_TRUE(
      Csv::ReadFile("/nonexistent/path.csv").status().IsIOError());
}

TEST(CsvTest, ReadRaggedFileFails) {
  const std::string path = ::testing::TempDir() + "/pgpub_ragged.csv";
  {
    std::ofstream out(path);
    out << "a,b\n1,2\n3\n";
  }
  EXPECT_TRUE(Csv::ReadFile(path).status().IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(CsvTest, WriteRaggedRowFails) {
  const std::string path = ::testing::TempDir() + "/pgpub_ragged_w.csv";
  EXPECT_TRUE(Csv::WriteFile(path, {"a", "b"}, {{"only-one"}})
                  .IsInvalidArgument());
  std::remove(path.c_str());
}

namespace {
/// Writes `text` byte-for-byte and parses it back.
Result<Csv::File> ReadCsvText(const std::string& name,
                              const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  Result<Csv::File> file = Csv::ReadFile(path);
  std::remove(path.c_str());
  return file;
}
}  // namespace

TEST(CsvTest, ReadCrlfTerminators) {
  auto file =
      ReadCsvText("pgpub_crlf.csv", "a,b\r\n1,2\r\n3,4\r\n").ValueOrDie();
  EXPECT_EQ(file.header, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(file.rows.size(), 2u);
  EXPECT_EQ(file.rows[1], (std::vector<std::string>{"3", "4"}));
}

TEST(CsvTest, ReadLoneCarriageReturnTerminators) {
  auto file = ReadCsvText("pgpub_cr.csv", "a,b\r1,2\r3,4").ValueOrDie();
  ASSERT_EQ(file.rows.size(), 2u);
  EXPECT_EQ(file.rows[0], (std::vector<std::string>{"1", "2"}));
}

TEST(CsvTest, ReadQuotedFieldSpanningLines) {
  auto file = ReadCsvText("pgpub_span.csv",
                          "a,b\n1,\"first\nsecond\r\nthird\"\n2,plain\n")
                  .ValueOrDie();
  ASSERT_EQ(file.rows.size(), 2u);
  EXPECT_EQ(file.rows[0][1], "first\nsecond\r\nthird");
  EXPECT_EQ(file.rows[1][1], "plain");
}

TEST(CsvTest, ReadQuotedFieldRoundTripsThroughWriter) {
  const std::string path = ::testing::TempDir() + "/pgpub_multiline.csv";
  std::vector<std::vector<std::string>> rows = {{"1", "two\nlines"},
                                                {"2", "say \"hi\",ok"}};
  ASSERT_TRUE(Csv::WriteFile(path, {"x", "note"}, rows).ok());
  auto file = Csv::ReadFile(path).ValueOrDie();
  EXPECT_EQ(file.rows, rows);
  std::remove(path.c_str());
}

TEST(CsvTest, ReadSkipsBlankLines) {
  auto file =
      ReadCsvText("pgpub_blank.csv", "a,b\n\n1,2\n\r\n\n3,4\n\n").ValueOrDie();
  ASSERT_EQ(file.rows.size(), 2u);
  EXPECT_EQ(file.rows[1], (std::vector<std::string>{"3", "4"}));
}

TEST(CsvTest, ReadNoTrailingNewline) {
  auto file = ReadCsvText("pgpub_notrail.csv", "a,b\n1,2").ValueOrDie();
  ASSERT_EQ(file.rows.size(), 1u);
  EXPECT_EQ(file.rows[0], (std::vector<std::string>{"1", "2"}));
}

TEST(CsvTest, ReadTruncatedInsideQuoteIsIOError) {
  Status st =
      ReadCsvText("pgpub_trunc.csv", "a,b\n1,\"cut off mid-fi").status();
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
}

TEST(CsvTest, ReadEmptyFileFails) {
  EXPECT_TRUE(
      ReadCsvText("pgpub_empty.csv", "").status().IsInvalidArgument());
}

TEST(CsvTest, ReadRaggedRowNamesLineNumber) {
  Status st =
      ReadCsvText("pgpub_ragged2.csv", "a,b\n1,2\n3,4,5\n").status();
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("3"), std::string::npos) << st.ToString();
}

TEST(CsvTest, ReadMidFieldQuoteFails) {
  EXPECT_TRUE(ReadCsvText("pgpub_midq.csv", "a,b\n1,x\"y\"\n")
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace pgpub
