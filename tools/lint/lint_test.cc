#include "lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>

#include "lexer.h"

namespace pgpub::lint {
namespace {

std::vector<Finding> RunLint(const std::string& source,
                         FileCategory category = FileCategory::kLibrary,
                         LintOptions options = LintOptions()) {
  return LintSource("src/fixture.cc", category, source, options);
}

bool HasFinding(const std::vector<Finding>& findings, const std::string& rule,
                int line) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) {
                       return f.rule == rule && f.line == line;
                     });
}

// ------------------------------------------------------------------ lexer

TEST(LexerTest, TokenizesIdentifiersNumbersAndOperators) {
  const LexedFile lexed = Lex("int x = 3; double y = 2.5e-1; x != 0x1p3;");
  ASSERT_GE(lexed.tokens.size(), 10u);
  EXPECT_EQ(lexed.tokens[0].text, "int");
  EXPECT_EQ(lexed.tokens[0].kind, TokenKind::kIdentifier);
  const auto num = std::find_if(lexed.tokens.begin(), lexed.tokens.end(),
                                [](const Token& t) { return t.text == "3"; });
  ASSERT_NE(num, lexed.tokens.end());
  EXPECT_FALSE(num->is_float);
  const auto flt = std::find_if(
      lexed.tokens.begin(), lexed.tokens.end(),
      [](const Token& t) { return t.text == "2.5e-1"; });
  ASSERT_NE(flt, lexed.tokens.end());
  EXPECT_TRUE(flt->is_float);
  const auto hexf = std::find_if(
      lexed.tokens.begin(), lexed.tokens.end(),
      [](const Token& t) { return t.text == "0x1p3"; });
  ASSERT_NE(hexf, lexed.tokens.end());
  EXPECT_TRUE(hexf->is_float);
}

TEST(LexerTest, CommentsAndStringsDoNotProduceIdentifierTokens) {
  const LexedFile lexed = Lex(
      "// std::rand() in a comment\n"
      "/* time(nullptr) in a block */\n"
      "const char* s = \"std::rand()\";\n");
  for (const Token& t : lexed.tokens) {
    EXPECT_NE(t.text, "rand") << "line " << t.line;
    EXPECT_NE(t.text, "time") << "line " << t.line;
  }
}

TEST(LexerTest, TracksLineNumbersAcrossConstructs) {
  const LexedFile lexed = Lex(
      "int a;\n"
      "/* multi\n   line */ int b;\n"
      "int c;\n");
  const auto find = [&](const char* name) {
    for (const Token& t : lexed.tokens) {
      if (t.text == name) return t.line;
    }
    return -1;
  };
  EXPECT_EQ(find("a"), 1);
  EXPECT_EQ(find("b"), 3);
  EXPECT_EQ(find("c"), 4);
}

TEST(LexerTest, HarvestsSuppressionsTrailingAndLeading) {
  const LexedFile lexed = Lex(
      "int a;  // pgpub-lint: allow(float-equality)\n"
      "// pgpub-lint: allow(nondeterminism, L1)\n"
      "int b;\n");
  EXPECT_TRUE(lexed.suppressions.Allows(1, "float-equality"));
  EXPECT_FALSE(lexed.suppressions.Allows(2, "float-equality"));
  // Comment-only line covers itself and the next line.
  EXPECT_TRUE(lexed.suppressions.Allows(3, "nondeterminism"));
  EXPECT_TRUE(lexed.suppressions.Allows(3, "L1"));
  EXPECT_FALSE(lexed.suppressions.Allows(4, "nondeterminism"));
}

TEST(LexerTest, AllowAllSuppressesEverything) {
  const LexedFile lexed = Lex("int a;  // pgpub-lint: allow(all)\n");
  EXPECT_TRUE(lexed.suppressions.Allows(1, "float-equality"));
  EXPECT_TRUE(lexed.suppressions.Allows(1, "nondeterminism"));
}

// ------------------------------------------------------- rule name mapping

TEST(RuleNameTest, ShortIdsMapToCanonicalNames) {
  EXPECT_EQ(CanonicalRuleName("L1"), kRuleDiscardedStatus);
  EXPECT_EQ(CanonicalRuleName("L2"), kRuleUncheckedResult);
  EXPECT_EQ(CanonicalRuleName("L3"), kRuleCheckOnInputPath);
  EXPECT_EQ(CanonicalRuleName("L4"), kRuleNondeterminism);
  EXPECT_EQ(CanonicalRuleName("L5"), kRuleFloatEquality);
  EXPECT_EQ(CanonicalRuleName("float-equality"), kRuleFloatEquality);
  EXPECT_EQ(CanonicalRuleName("L6"), kRuleDirectIo);
  EXPECT_EQ(CanonicalRuleName("io"), kRuleDirectIo);
  EXPECT_EQ(CanonicalRuleName("direct-io"), kRuleDirectIo);
  EXPECT_EQ(CanonicalRuleName("L7"), kRuleRawThread);
  EXPECT_EQ(CanonicalRuleName("thread"), kRuleRawThread);
  EXPECT_EQ(CanonicalRuleName("raw-thread"), kRuleRawThread);
  EXPECT_EQ(CanonicalRuleName("L8"), kRuleRawMutex);
  EXPECT_EQ(CanonicalRuleName("mutex"), kRuleRawMutex);
  EXPECT_EQ(CanonicalRuleName("raw-mutex"), kRuleRawMutex);
  EXPECT_EQ(CanonicalRuleName("L9"), kRuleUnannotatedGuard);
  EXPECT_EQ(CanonicalRuleName("unannotated-guard"), kRuleUnannotatedGuard);
  EXPECT_EQ(CanonicalRuleName("L10"), kRuleSpanLiteral);
  EXPECT_EQ(CanonicalRuleName("span"), kRuleSpanLiteral);
  EXPECT_EQ(CanonicalRuleName("span-name-literal"), kRuleSpanLiteral);
  EXPECT_EQ(CanonicalRuleName("bogus"), "");
}

TEST(CategoryTest, PathsMapToCategories) {
  EXPECT_EQ(CategorizeRelPath("src/core/validate.cc"),
            FileCategory::kLibrary);
  EXPECT_EQ(CategorizeRelPath("bench/micro_ops.cc"),
            FileCategory::kHarness);
  EXPECT_EQ(CategorizeRelPath("examples/quickstart.cpp"),
            FileCategory::kHarness);
  EXPECT_EQ(CategorizeRelPath("tests/attack_test.cc"),
            FileCategory::kExempt);
  EXPECT_EQ(CategorizeRelPath("build/generated.cc"), FileCategory::kExempt);
}

// ----------------------------------------------------- L1 discarded-status

constexpr char kStatusDecls[] =
    "Status Validate(const Table& t);\n"
    "Result<int> Parse(const std::string& s);\n";

TEST(DiscardedStatusTest, FlagsBareStatementCall) {
  const auto findings = RunLint(std::string(kStatusDecls) +
                            "void f(const Table& t) {\n"
                            "  Validate(t);\n"
                            "}\n");
  EXPECT_TRUE(HasFinding(findings, kRuleDiscardedStatus, 4));
}

TEST(DiscardedStatusTest, FlagsDiscardedMemberCall) {
  LintOptions options;
  options.status_apis.insert("Publish");
  const auto findings =
      RunLint("void f(Publisher& p, const Table& t) {\n"
          "  p.Publish(t);\n"
          "}\n",
          FileCategory::kLibrary, options);
  EXPECT_TRUE(HasFinding(findings, kRuleDiscardedStatus, 2));
}

TEST(DiscardedStatusTest, AcceptsAssignedReturnAndConditions) {
  const auto findings = RunLint(std::string(kStatusDecls) +
                            "Status g(const Table& t) {\n"
                            "  Status s = Validate(t);\n"
                            "  if (!Validate(t).ok()) return s;\n"
                            "  RETURN_IF_ERROR(Validate(t));\n"
                            "  return Validate(t);\n"
                            "}\n");
  EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(DiscardedStatusTest, FlagsDiscardInsideIfBody) {
  const auto findings = RunLint(std::string(kStatusDecls) +
                            "void f(const Table& t, bool retry) {\n"
                            "  if (retry) Validate(t);\n"
                            "}\n");
  EXPECT_TRUE(HasFinding(findings, kRuleDiscardedStatus, 4));
}

TEST(DiscardedStatusTest, VoidCastIsASanctionedDiscard) {
  const auto findings = RunLint(std::string(kStatusDecls) +
                            "void f(const Table& t) {\n"
                            "  (void)Validate(t);\n"
                            "}\n");
  EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(DiscardedStatusTest, SuppressibleWithAllowComment) {
  const auto findings =
      RunLint(std::string(kStatusDecls) +
          "void f(const Table& t) {\n"
          "  Validate(t);  // pgpub-lint: allow(discarded-status)\n"
          "}\n");
  EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(DiscardedStatusTest, HarvestsQualifiedAndResultDeclarations) {
  const auto findings =
      RunLint("Result<std::vector<int>> Loader::LoadRows(const Path& p);\n"
          "void f(const Path& p) {\n"
          "  LoadRows(p);\n"
          "}\n");
  EXPECT_TRUE(HasFinding(findings, kRuleDiscardedStatus, 3));
}

// ---------------------------------------------------- L2 unchecked-result

TEST(UncheckedResultTest, FlagsUnwrapWithoutCheck) {
  const auto findings =
      RunLint("int f(Result<int> r) {\n"
          "  return r.ValueOrDie();\n"
          "}\n");
  EXPECT_TRUE(HasFinding(findings, kRuleUncheckedResult, 2));
}

TEST(UncheckedResultTest, AcceptsUnwrapAfterOkCheck) {
  const auto findings =
      RunLint("int f(Result<int> r) {\n"
          "  if (!r.ok()) return -1;\n"
          "  return r.ValueOrDie();\n"
          "}\n");
  EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(UncheckedResultTest, MoveUnwrapSeesThroughStdMove) {
  const auto findings =
      RunLint("int f(Result<int> candidate) {\n"
          "  if (candidate.ok()) {\n"
          "    return std::move(candidate).ValueOrDie();\n"
          "  }\n"
          "  return 0;\n"
          "}\n");
  EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(UncheckedResultTest, FlagsTemporaryUnwrap) {
  const auto findings =
      RunLint("Result<int> Parse(const std::string& s);\n"
          "int f(const std::string& s) {\n"
          "  return Parse(s).ValueOrDie();\n"
          "}\n");
  EXPECT_TRUE(HasFinding(findings, kRuleUncheckedResult, 3));
}

TEST(UncheckedResultTest, NotAppliedToHarnessCode) {
  const auto findings =
      LintSource("bench/fixture.cc", FileCategory::kHarness,
                 "int f(Result<int> r) { return r.ValueOrDie(); }\n",
                 LintOptions());
  EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(UncheckedResultTest, SuppressibleWithShortId) {
  const auto findings =
      RunLint("int f(Result<int> r) {\n"
          "  return r.ValueOrDie();  // pgpub-lint: allow(L2)\n"
          "}\n");
  EXPECT_TRUE(findings.empty()) << findings[0].message;
}

// -------------------------------------------------- L3 check-on-input-path

TEST(CheckOnInputPathTest, FlagsCheckInUnlistedFile) {
  const auto findings =
      RunLint("void f(int k) {\n"
          "  PGPUB_CHECK_GT(k, 0) << \"k\";\n"
          "  PGPUB_CHECK(k < 100);\n"
          "}\n");
  EXPECT_TRUE(HasFinding(findings, kRuleCheckOnInputPath, 2));
  EXPECT_TRUE(HasFinding(findings, kRuleCheckOnInputPath, 3));
}

TEST(CheckOnInputPathTest, AllowlistedFileIsExempt) {
  LintOptions options;
  options.check_allowlist.insert("src/fixture.cc");
  const auto findings =
      RunLint("void f(int k) { PGPUB_CHECK_GT(k, 0); }\n",
          FileCategory::kLibrary, options);
  EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(CheckOnInputPathTest, NotAppliedToHarnessCode) {
  const auto findings = LintSource(
      "bench/fixture.cc", FileCategory::kHarness,
      "void f(int k) { PGPUB_CHECK_GT(k, 0); }\n", LintOptions());
  EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(CheckOnInputPathTest, Suppressible) {
  const auto findings = RunLint(
      "void f(int k) {\n"
      "  // Invariant, not input: k was validated by the caller.\n"
      "  // pgpub-lint: allow(check-on-input-path)\n"
      "  PGPUB_CHECK_GT(k, 0);\n"
      "}\n");
  EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(CheckOnInputPathTest, ParseAllowlistKeepsEntryLines) {
  const std::map<std::string, int> entries = ParseAllowlist(
      "# header\n"
      "\n"
      "src/a.cc\n"
      "  src/b.h   # trailing comment\r\n");
  EXPECT_EQ(entries, (std::map<std::string, int>{{"src/a.cc", 3},
                                                  {"src/b.h", 4}}));
}

TEST(CheckOnInputPathTest, StaleAllowlistEntriesAreFindings) {
  const std::map<std::string, std::string> tree = {
      {"src/uses.cc", "void f(int k) { PGPUB_CHECK_GT(k, 0); }\n"},
      {"src/defines.h", "#define PGPUB_CHECK(c) Die(#c)\n"},
      {"src/migrated.cc",
       "// Used to PGPUB_CHECK here; now returns Status.\n"
       "Status f() { return Status::OK(); }\n"},
  };
  const SourceReader read =
      [&](const std::string& rel) -> std::optional<std::string> {
    auto it = tree.find(rel);
    if (it == tree.end()) return std::nullopt;
    return it->second;
  };
  const std::map<std::string, int> entries = {{"src/uses.cc", 2},
                                              {"src/defines.h", 3},
                                              {"src/migrated.cc", 4},
                                              {"src/deleted.cc", 5}};
  const auto findings =
      FindStaleAllowlistEntries("tools/allow.txt", entries, read);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].file, "tools/allow.txt");
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_EQ(findings[0].rule, kRuleCheckOnInputPath);
  EXPECT_NE(findings[0].message.find("src/migrated.cc"), std::string::npos);
  EXPECT_EQ(findings[1].line, 5);
  EXPECT_NE(findings[1].message.find("no such file"), std::string::npos);
}

// ------------------------------------------------------ L4 nondeterminism

TEST(NondeterminismTest, FlagsBannedEnginesAndCalls) {
  const auto findings =
      RunLint("#include <random>\n"
          "uint64_t f() {\n"
          "  std::random_device rd;\n"
          "  std::mt19937 gen(rd());\n"
          "  std::srand(42);\n"
          "  return std::rand() + time(nullptr);\n"
          "}\n");
  EXPECT_TRUE(HasFinding(findings, kRuleNondeterminism, 3));
  EXPECT_TRUE(HasFinding(findings, kRuleNondeterminism, 4));
  EXPECT_TRUE(HasFinding(findings, kRuleNondeterminism, 5));
  EXPECT_TRUE(HasFinding(findings, kRuleNondeterminism, 6));
}

TEST(NondeterminismTest, TimeAsMemberOrFieldIsFine) {
  const auto findings =
      RunLint("double f(const Stats& s) { return s.time(); }\n"
          "struct T { int time; };\n"
          "int g(const T& t) { return t.time; }\n");
  EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(NondeterminismTest, AppliesToHarnessCodeToo) {
  const auto findings = LintSource(
      "bench/fixture.cc", FileCategory::kHarness,
      "int f() { return std::rand(); }\n", LintOptions());
  EXPECT_TRUE(HasFinding(findings, kRuleNondeterminism, 1));
}

TEST(NondeterminismTest, RandomImplIsExempt) {
  const auto findings = LintSource(
      "src/common/random.h", FileCategory::kLibrary,
      "std::mt19937 LegacyEngine();\n", LintOptions());
  EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(NondeterminismTest, Suppressible) {
  const auto findings = RunLint(
      "int f() {\n"
      "  return std::rand();  // pgpub-lint: allow(nondeterminism)\n"
      "}\n");
  EXPECT_TRUE(findings.empty()) << findings[0].message;
}

// ------------------------------------------------------ L5 float-equality

TEST(FloatEqualityTest, FlagsComparisonWithFloatLiteral) {
  const auto findings =
      RunLint("bool f(double x) {\n"
          "  return x == 0.0;\n"
          "}\n");
  EXPECT_TRUE(HasFinding(findings, kRuleFloatEquality, 2));
}

TEST(FloatEqualityTest, FlagsDeclaredDoubleOnEitherSide) {
  const auto findings =
      RunLint("bool f(int mask) {\n"
          "  double pivot = Compute();\n"
          "  return pivot != Other(mask);\n"
          "}\n");
  EXPECT_TRUE(HasFinding(findings, kRuleFloatEquality, 3));
}

TEST(FloatEqualityTest, FlagsNegatedLiteralRhs) {
  const auto findings = RunLint("bool f(double x) { return x == -1.0; }\n");
  EXPECT_TRUE(HasFinding(findings, kRuleFloatEquality, 1));
}

TEST(FloatEqualityTest, IntegerComparisonsAreFine) {
  const auto findings =
      RunLint("bool f(int a, int b) {\n"
          "  return a == b && a != 0;\n"
          "}\n");
  EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(FloatEqualityTest, PointerToDoubleComparisonIsFine) {
  const auto findings =
      RunLint("bool f(double* p) {\n"
          "  return p == nullptr;\n"
          "}\n");
  EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(FloatEqualityTest, MathUtilIsExempt) {
  const auto findings = LintSource(
      "src/common/math_util.cc", FileCategory::kLibrary,
      "bool Exact(double a, double b) { return a == b; }\n", LintOptions());
  EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(FloatEqualityTest, Suppressible) {
  const auto findings = RunLint(
      "bool f(double x) {\n"
      "  // Sentinel compare: x is set to exactly -1.0, never computed.\n"
      "  // pgpub-lint: allow(float-equality)\n"
      "  return x == -1.0;\n"
      "}\n");
  EXPECT_TRUE(findings.empty()) << findings[0].message;
}

// ----------------------------------------------------------- L6 direct-io

TEST(DirectIoTest, FlagsCoutAndCerrInLibraryCode) {
  const auto findings = RunLint(
      "void f(int n) {\n"
      "  std::cout << n << \"\\n\";\n"
      "  std::cerr << \"warn\\n\";\n"
      "}\n");
  EXPECT_TRUE(HasFinding(findings, kRuleDirectIo, 2));
  EXPECT_TRUE(HasFinding(findings, kRuleDirectIo, 3));
}

TEST(DirectIoTest, HarnessCodeMayPrint) {
  const auto findings = RunLint(
      "int main() {\n"
      "  std::cout << \"table 3\\n\";\n"
      "}\n",
      FileCategory::kHarness);
  EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(DirectIoTest, ObsLayerAndLoggingHeaderAreExempt) {
  const std::string source =
      "void Emit() { std::cerr << \"event\\n\"; }\n";
  EXPECT_TRUE(LintSource("src/obs/log.cc", FileCategory::kLibrary, source,
                         LintOptions())
                  .empty());
  EXPECT_TRUE(LintSource("src/common/logging.h", FileCategory::kLibrary,
                         source, LintOptions())
                  .empty());
  EXPECT_FALSE(LintSource("src/core/pg_publisher.cc", FileCategory::kLibrary,
                          source, LintOptions())
                   .empty());
}

TEST(DirectIoTest, MemberNamedCoutIsNotTheStream) {
  const auto findings = RunLint(
      "void f(Widget& w) {\n"
      "  w.cout << 1;\n"
      "}\n");
  EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(DirectIoTest, SuppressibleWithIoShorthand) {
  const auto findings = RunLint(
      "void f() {\n"
      "  std::cerr << \"boot banner\\n\";  // pgpub-lint: allow(io)\n"
      "}\n");
  EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(DirectIoTest, SuppressibleWithShortId) {
  const auto findings = RunLint(
      "void f() {\n"
      "  std::cout << \"x\\n\";  // pgpub-lint: allow(L6)\n"
      "}\n");
  EXPECT_TRUE(findings.empty()) << findings[0].message;
}

// ---------------------------------------------------------- rule selection

TEST(RuleSelectionTest, EnabledRulesRestrictsTheRun) {
  LintOptions options;
  options.enabled_rules.insert(kRuleNondeterminism);
  const auto findings =
      RunLint("bool f(double x) {\n"
          "  std::srand(7);\n"
          "  return x == 0.0;\n"
          "}\n",
          FileCategory::kLibrary, options);
  EXPECT_TRUE(HasFinding(findings, kRuleNondeterminism, 2));
  EXPECT_FALSE(HasFinding(findings, kRuleFloatEquality, 3));
}

TEST(FindingsTest, SortedByLine) {
  const auto findings =
      RunLint("bool f(double x) {\n"
          "  std::srand(7);\n"
          "  return x == 0.0;\n"
          "}\n");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_LT(findings[0].line, findings[1].line);
}

// ----------------------------------------------------------- L7 raw-thread

TEST(RawThreadTest, FlagsThreadConstructionAndAsync) {
  const auto findings = RunLint(
      "void f() {\n"
      "  std::thread t([] {});\n"
      "  std::jthread j([] {});\n"
      "  auto fut = std::async([] { return 1; });\n"
      "}\n");
  EXPECT_TRUE(HasFinding(findings, kRuleRawThread, 2));
  EXPECT_TRUE(HasFinding(findings, kRuleRawThread, 3));
  EXPECT_TRUE(HasFinding(findings, kRuleRawThread, 4));
}

TEST(RawThreadTest, HardwareConcurrencyQueryIsLegal) {
  const auto findings = RunLint(
      "int n() { return std::thread::hardware_concurrency(); }\n");
  EXPECT_TRUE(findings.empty());
}

TEST(RawThreadTest, UnqualifiedThreadNameIsNotTheStdType) {
  // A member or local merely *named* thread/async is unrelated.
  const auto findings = RunLint(
      "struct W { int thread; };\n"
      "void g(W w) { w.thread = 3; my::async(1); }\n");
  EXPECT_TRUE(findings.empty());
}

TEST(RawThreadTest, PoolImplementationDirectoryIsExempt) {
  const auto findings = LintSource(
      "src/common/parallel/thread_pool.cc", FileCategory::kLibrary,
      "void f() { std::thread t([] {}); }\n", LintOptions());
  EXPECT_TRUE(findings.empty());
}

TEST(RawThreadTest, AppliesToHarnessCodeToo) {
  const auto findings = LintSource(
      "bench/fixture.cc", FileCategory::kHarness,
      "void f() { std::thread t([] {}); }\n", LintOptions());
  EXPECT_TRUE(HasFinding(findings, kRuleRawThread, 1));
}

TEST(RawThreadTest, SuppressibleWithAllowThreadAndShortId) {
  const auto findings = RunLint(
      "void f() {\n"
      "  std::thread a([] {});  // pgpub-lint: allow(thread)\n"
      "  std::thread b([] {});  // pgpub-lint: allow(L7)\n"
      "  std::thread c([] {});  // pgpub-lint: allow(raw-thread)\n"
      "}\n");
  EXPECT_TRUE(findings.empty());
}

// ------------------------------------------------------------ L8 raw-mutex

TEST(RawMutexTest, FlagsRawLockingPrimitives) {
  const auto findings = RunLint(
      "std::mutex mu;\n"
      "void f() {\n"
      "  std::lock_guard<std::mutex> lock(mu);\n"
      "  std::unique_lock<std::mutex> ul(mu);\n"
      "  std::condition_variable cv;\n"
      "  std::shared_mutex sm;\n"
      "}\n");
  EXPECT_TRUE(HasFinding(findings, kRuleRawMutex, 1));
  EXPECT_TRUE(HasFinding(findings, kRuleRawMutex, 3));
  EXPECT_TRUE(HasFinding(findings, kRuleRawMutex, 4));
  EXPECT_TRUE(HasFinding(findings, kRuleRawMutex, 5));
  EXPECT_TRUE(HasFinding(findings, kRuleRawMutex, 6));
}

TEST(RawMutexTest, AnnotatedSyncLayerTypesAreLegal) {
  const auto findings = RunLint(
      "void f() {\n"
      "  Mutex mu(\"fixture\");\n"
      "  MutexLock lock(&mu);\n"
      "  CondVar cv;\n"
      "}\n");
  EXPECT_TRUE(findings.empty());
}

TEST(RawMutexTest, UnqualifiedMutexNameIsNotTheStdType) {
  const auto findings = RunLint(
      "struct W { int mutex; };\n"
      "void g(W w) { w.mutex = 3; my::lock_guard(1); }\n");
  EXPECT_TRUE(findings.empty());
}

TEST(RawMutexTest, SyncImplementationDirectoryIsExempt) {
  const auto findings = LintSource(
      "src/common/sync/mutex.cc", FileCategory::kLibrary,
      "void f() { std::mutex mu; std::condition_variable cv; }\n",
      LintOptions());
  EXPECT_TRUE(findings.empty());
}

TEST(RawMutexTest, AppliesToHarnessCodeToo) {
  const auto findings = LintSource(
      "bench/fixture.cc", FileCategory::kHarness,
      "void f() { std::mutex mu; }\n", LintOptions());
  EXPECT_TRUE(HasFinding(findings, kRuleRawMutex, 1));
}

TEST(RawMutexTest, SuppressibleWithAllowMutexAndShortId) {
  const auto findings = RunLint(
      "std::mutex a;  // pgpub-lint: allow(mutex)\n"
      "std::mutex b;  // pgpub-lint: allow(L8)\n"
      "std::mutex c;  // pgpub-lint: allow(raw-mutex)\n");
  EXPECT_TRUE(findings.empty());
}

// ----------------------------------------------- L9 unannotated-guard

TEST(UnannotatedGuardTest, FlagsBareFieldNextToMutex) {
  const auto findings = RunLint(
      "class Registry {\n"
      " public:\n"
      "  void Add();\n"
      " private:\n"
      "  Mutex mu_;\n"
      "  int count_ = 0;\n"
      "  std::map<int, int> entries_;\n"
      "};\n");
  EXPECT_TRUE(HasFinding(findings, kRuleUnannotatedGuard, 6));
  EXPECT_TRUE(HasFinding(findings, kRuleUnannotatedGuard, 7));
}

TEST(UnannotatedGuardTest, AnnotatedFieldsAreClean) {
  const auto findings = RunLint(
      "class Registry {\n"
      "  Mutex mu_{\"fixture\", 10};\n"
      "  CondVar cv_;\n"
      "  int count_ PGPUB_GUARDED_BY(mu_) = 0;\n"
      "  Entry* head_ PGPUB_PT_GUARDED_BY(mu_) = nullptr;\n"
      "};\n");
  EXPECT_TRUE(findings.empty());
}

TEST(UnannotatedGuardTest, ImmutableStaticAndAtomicMembersAreExempt) {
  const auto findings = RunLint(
      "class Core {\n"
      "  Mutex mu_;\n"
      "  Registry* const registry_;\n"
      "  const Options options_;\n"
      "  static int shared_;\n"
      "  std::atomic<bool> stop_{false};\n"
      "  void Tick();\n"
      "};\n");
  EXPECT_TRUE(findings.empty());
}

TEST(UnannotatedGuardTest, ClassWithoutMutexIsIgnored) {
  const auto findings = RunLint(
      "class Plain {\n"
      "  int count_ = 0;\n"
      "  std::string name_;\n"
      "};\n");
  EXPECT_TRUE(findings.empty());
}

TEST(UnannotatedGuardTest, NestedTypeDefinitionsAreNotFields) {
  const auto findings = RunLint(
      "class Outer {\n"
      "  struct Snapshot {\n"
      "    int a = 0;\n"
      "    int b = 0;\n"
      "  };\n"
      "  enum class Mode { kA, kB };\n"
      "  Mutex mu_;\n"
      "  int guarded_ PGPUB_GUARDED_BY(mu_) = 0;\n"
      "};\n");
  EXPECT_TRUE(findings.empty());
}

TEST(UnannotatedGuardTest, InlineFunctionBodiesAreNotFields) {
  const auto findings = RunLint(
      "class Core {\n"
      "  int queued() const { int local = 3; return local; }\n"
      "  Mutex mu_;\n"
      "  int queue_ PGPUB_GUARDED_BY(mu_) = 0;\n"
      "};\n");
  EXPECT_TRUE(findings.empty());
}

TEST(UnannotatedGuardTest, SuppressibleWithShortId) {
  const auto findings = RunLint(
      "class Core {\n"
      "  Mutex mu_;\n"
      "  std::thread worker_;  // pgpub-lint: allow(L9, thread)\n"
      "};\n");
  EXPECT_TRUE(findings.empty());
}

TEST(UnannotatedGuardTest, ReportsClassAndMemberName) {
  const auto findings = RunLint(
      "class Registry {\n"
      "  Mutex mu_;\n"
      "  int count_ = 0;\n"
      "};\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("'Registry'"), std::string::npos);
  EXPECT_NE(findings[0].message.find("'count_'"), std::string::npos);
}

// ------------------------------------------------- L10 span-name-literal

TEST(SpanLiteralTest, FlagsDynamicSpanNames) {
  const auto findings = RunLint(
      "void Serve(const std::string& phase) {\n"
      "  obs::ScopedSpan span(phase.c_str());\n"
      "  PGPUB_TRACE_SPAN(phase.c_str());\n"
      "}\n");
  EXPECT_TRUE(HasFinding(findings, kRuleSpanLiteral, 2));
  EXPECT_TRUE(HasFinding(findings, kRuleSpanLiteral, 3));
}

TEST(SpanLiteralTest, LiteralSpanNamesAreClean) {
  const auto findings = RunLint(
      "void Serve() {\n"
      "  obs::ScopedSpan span(\"server.dispatch\");\n"
      "  span.Attr(\"tenant\", tenant);\n"
      "  PGPUB_TRACE_SPAN(\"server.publish\");\n"
      "}\n");
  for (const Finding& f : findings) {
    EXPECT_NE(f.rule, kRuleSpanLiteral) << "line " << f.line;
  }
}

TEST(SpanLiteralTest, TracerImplementationIsExempt) {
  const auto findings = LintSource(
      "src/obs/trace.cc", FileCategory::kLibrary,
      "ScopedSpan MakeSpan(const char* name) {\n"
      "  return ScopedSpan span(name);\n"
      "}\n",
      LintOptions());
  for (const Finding& f : findings) {
    EXPECT_NE(f.rule, kRuleSpanLiteral) << "line " << f.line;
  }
}

TEST(SpanLiteralTest, SuppressibleWithShortIdAndShorthand) {
  const auto findings = RunLint(
      "void Serve(const char* name) {\n"
      "  obs::ScopedSpan a(name);  // pgpub-lint: allow(L10)\n"
      "  obs::ScopedSpan b(name);  // pgpub-lint: allow(span)\n"
      "}\n");
  for (const Finding& f : findings) {
    EXPECT_NE(f.rule, kRuleSpanLiteral) << "line " << f.line;
  }
}

TEST(SpanLiteralTest, AppliesToHarnessCodeToo) {
  const auto findings = LintSource(
      "bench/fixture.cc", FileCategory::kHarness,
      "int main() {\n"
      "  obs::ScopedSpan span(BuildName());\n"
      "}\n",
      LintOptions());
  EXPECT_TRUE(HasFinding(findings, kRuleSpanLiteral, 2));
}

}  // namespace
}  // namespace pgpub::lint
