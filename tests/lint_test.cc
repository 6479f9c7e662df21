// Tests for efes_lint: every check gets a positive case (the violation
// is found), a negative case (idiomatic code stays clean), and a
// suppression case (EFES_LINT_ALLOW with a reason silences it, without
// one it doesn't). Fixture sources live in raw strings, so linting this
// file itself stays clean. The meta-tests at the end lint the real tree
// in-process; the lint_tree ctest runs the full gate through the CLI.

#include "efes/lint/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "efes/common/file_io.h"
#include "efes/lint/registry.h"
#include "efes/lint/sarif.h"
#include "efes/lint/token.h"

namespace efes::lint {
namespace {

using File = std::pair<std::string, std::string>;

std::vector<Finding> Lint(const std::vector<File>& files) {
  Linter linter;
  return linter.RunFiles(files);
}

/// Unsuppressed findings of one check id.
std::vector<Finding> FindingsOf(const std::vector<Finding>& all,
                                const std::string& check) {
  std::vector<Finding> out;
  for (const Finding& f : all) {
    if (f.check == check && !f.suppressed) out.push_back(f);
  }
  return out;
}

// ---------------------------------------------------------------- lexer

TEST(TokenizerTest, SkipsCommentsAndStrings) {
  auto tokens = Tokenize(R"cpp(
// rand() in a line comment
/* rand() in a block
   comment */
const char* s = "rand()";
const char* r = R"x(rand())x";
int n = 42;
)cpp");
  int identifiers = 0;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kIdentifier) {
      EXPECT_NE(t.text, "rand");
      ++identifiers;
    }
  }
  // const, char, s, const, char, r, int, n
  EXPECT_EQ(identifiers, 8);
}

TEST(TokenizerTest, TracksLineNumbers) {
  auto tokens = Tokenize("a\nbb\n\ncc dd\n");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[1].line, 2);
  EXPECT_EQ(tokens[2].line, 4);
  EXPECT_EQ(tokens[3].line, 4);
}

TEST(TokenizerTest, MultiCharPunctuatorsAreSingleTokens) {
  auto tokens = Tokenize("a::b->c >> d");
  ASSERT_EQ(tokens.size(), 7u);
  EXPECT_EQ(tokens[1].text, "::");
  EXPECT_EQ(tokens[3].text, "->");
  EXPECT_EQ(tokens[5].text, ">>");
}

TEST(TokenizerTest, SurvivesUnterminatedLiterals) {
  EXPECT_FALSE(Tokenize("const char* s = \"never closed").empty());
  EXPECT_FALSE(Tokenize("/* never closed").empty());
  EXPECT_FALSE(Tokenize("R\"tag(never closed").empty());
}

// -------------------------------------------------------- nondeterminism

TEST(NondeterminismTest, FlagsEntropyAndWallClock) {
  auto findings = Lint({{"src/efes/core/x.cc",
                         "void F() {\n"
                         "  int a = rand();\n"
                         "  srand(7);\n"
                         "  std::random_device rd;\n"
                         "  auto t = time(nullptr);\n"
                         "  auto n = std::chrono::system_clock::now();\n"
                         "}\n"}});
  EXPECT_EQ(FindingsOf(findings, "nondeterminism").size(), 5u);
}

TEST(NondeterminismTest, AllowlistedPathsAreClean) {
  const std::string body = "void F() {\n  std::random_device rd;\n}\n";
  EXPECT_TRUE(FindingsOf(Lint({{"src/efes/common/random.cc", body}}),
                         "nondeterminism")
                  .empty());
  EXPECT_TRUE(FindingsOf(Lint({{"src/efes/common/clock.cc", body}}),
                         "nondeterminism")
                  .empty());
}

TEST(NondeterminismTest, MemberNamedTimeIsClean) {
  auto findings =
      Lint({{"src/efes/core/x.cc", "void F(Span s) {\n  s.time(1);\n}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "nondeterminism").empty());
}

TEST(NondeterminismTest, SuppressionWithReasonSilences) {
  auto findings = Lint(
      {{"src/efes/core/x.cc",
        "void F() {\n"
        "  srand(7);  // EFES_LINT_ALLOW(nondeterminism): seeding a demo\n"
        "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "nondeterminism").empty());
}

// --------------------------------------------------- unordered-iteration

constexpr char kUnorderedLoop[] =
    "void Render() {\n"
    "  std::unordered_map<std::string, int> counts;\n"
    "  for (const auto& [key, value] : counts) {\n"
    "  }\n"
    "}\n";

TEST(UnorderedIterationTest, FlagsRangeForInReportPath) {
  auto findings = Lint({{"src/efes/telemetry/report.cc", kUnorderedLoop}});
  auto hits = FindingsOf(findings, "unordered-iteration");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 3);
}

TEST(UnorderedIterationTest, NonOutputPathsAreClean) {
  auto findings = Lint({{"src/efes/profiling/stats.cc", kUnorderedLoop}});
  EXPECT_TRUE(FindingsOf(findings, "unordered-iteration").empty());
}

TEST(UnorderedIterationTest, IteratingSortedCopyIsClean) {
  auto findings = Lint(
      {{"src/efes/telemetry/report.cc",
        "void Render() {\n"
        "  std::unordered_map<std::string, int> counts;\n"
        "  std::map<std::string, int> sorted(counts.begin(), counts.end());\n"
        "  for (const auto& [key, value] : sorted) {\n"
        "  }\n"
        "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "unordered-iteration").empty());
}

TEST(UnorderedIterationTest, SuppressionWithReasonSilences) {
  std::string body = kUnorderedLoop;
  body.insert(body.find("  for"),
              "  // EFES_LINT_ALLOW(unordered-iteration): keys re-sorted "
              "downstream\n");
  auto findings = Lint({{"src/efes/telemetry/report.cc", body}});
  EXPECT_TRUE(FindingsOf(findings, "unordered-iteration").empty());
}

// -------------------------------------------------------- raw-file-write

TEST(RawFileWriteTest, FlagsOfstreamFopenRename) {
  auto findings = Lint({{"src/efes/core/x.cc",
                         "void F() {\n"
                         "  std::ofstream out(\"f\");\n"
                         "  FILE* fp = fopen(\"f\", \"w\");\n"
                         "  std::filesystem::rename(\"a\", \"b\");\n"
                         "}\n"}});
  EXPECT_EQ(FindingsOf(findings, "raw-file-write").size(), 3u);
}

TEST(RawFileWriteTest, FileIoAndReadsAreClean) {
  EXPECT_TRUE(
      FindingsOf(Lint({{"src/efes/common/file_io.cc",
                        "void F() {\n  std::ofstream out(\"f\");\n}\n"}}),
                 "raw-file-write")
          .empty());
  EXPECT_TRUE(
      FindingsOf(Lint({{"src/efes/core/x.cc",
                        "void F() {\n  std::ifstream in(\"f\");\n}\n"}}),
                 "raw-file-write")
          .empty());
}

TEST(RawFileWriteTest, SuppressionWithReasonSilences) {
  auto findings = Lint(
      {{"src/efes/core/x.cc",
        "void F() {\n"
        "  // EFES_LINT_ALLOW(raw-file-write): corrupting a fixture file\n"
        "  std::ofstream out(\"f\");\n"
        "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "raw-file-write").empty());
}

// -------------------------------------------------------- header-hygiene

TEST(HeaderHygieneTest, FlagsMissingGuardAndUsingNamespace) {
  auto findings = Lint({{"src/efes/core/bad.h",
                         "using namespace std;\n"
                         "int F();\n"}});
  auto hits = FindingsOf(findings, "header-hygiene");
  EXPECT_EQ(hits.size(), 2u);
}

TEST(HeaderHygieneTest, GuardedHeadersAreClean) {
  EXPECT_TRUE(FindingsOf(Lint({{"a/p.h", "#pragma once\nint F();\n"}}),
                         "header-hygiene")
                  .empty());
  EXPECT_TRUE(FindingsOf(Lint({{"a/g.h",
                                "#ifndef A_G_H_\n#define A_G_H_\n"
                                "int F();\n#endif\n"}}),
                         "header-hygiene")
                  .empty());
}

TEST(HeaderHygieneTest, SourceFilesNeedNoGuard) {
  EXPECT_TRUE(
      FindingsOf(Lint({{"a/x.cc", "int F() { return 1; }\n"}}),
                 "header-hygiene")
          .empty());
}

TEST(HeaderHygieneTest, SuppressionWithReasonSilences) {
  auto findings = Lint(
      {{"a/bad.h",
        "// EFES_LINT_ALLOW(header-hygiene): generated shim, guard upstream\n"
        "int F();\n"}});
  EXPECT_TRUE(FindingsOf(findings, "header-hygiene").empty());
}

// ------------------------------------------------------- banned-function

TEST(BannedFunctionTest, FlagsCFootgunsAndNakedNewDelete) {
  auto findings = Lint({{"src/efes/core/x.cc",
                         "void F(char* d, const char* s, Thing* t) {\n"
                         "  strcpy(d, s);\n"
                         "  sprintf(d, \"%d\", 1);\n"
                         "  int n = atoi(s);\n"
                         "  Thing* u = new Thing();\n"
                         "  delete t;\n"
                         "}\n"}});
  EXPECT_EQ(FindingsOf(findings, "banned-function").size(), 5u);
}

TEST(BannedFunctionTest, MentionInStringLiteralIsClean) {
  auto findings = Lint({{"src/efes/core/x.cc",
                         "const char* kHint =\n"
                         "    \"strcpy(d, s) and new Thing() are "
                         "banned\";\n"}});
  EXPECT_TRUE(FindingsOf(findings, "banned-function").empty());
}

TEST(BannedFunctionTest, DeletedFunctionsAndOperatorsAreClean) {
  auto findings = Lint({{"src/efes/core/x.h",
                         "#pragma once\n"
                         "struct S {\n"
                         "  S(const S&) = delete;\n"
                         "  S& operator=(const S&) = delete;\n"
                         "};\n"}});
  EXPECT_TRUE(FindingsOf(findings, "banned-function").empty());
}

TEST(BannedFunctionTest, SuppressionWithReasonSilences) {
  auto findings = Lint(
      {{"src/efes/core/x.cc",
        "Thing* F() {\n"
        "  // EFES_LINT_ALLOW(banned-function): leaked singleton\n"
        "  return new Thing();\n"
        "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "banned-function").empty());
}

// -------------------------------------------------------- unbounded-wait

TEST(UnboundedWaitTest, FlagsSleepsAndPredicatelessWaits) {
  auto findings = Lint({{"src/efes/serve/x.cc",
                         "void F(std::condition_variable& cv,\n"
                         "       std::unique_lock<std::mutex>& lock,\n"
                         "       std::future<int>& f) {\n"
                         "  std::this_thread::sleep_for(\n"
                         "      std::chrono::milliseconds(10));\n"
                         "  cv.wait(lock);\n"
                         "  f.wait();\n"
                         "}\n"}});
  EXPECT_EQ(FindingsOf(findings, "unbounded-wait").size(), 3u);
}

TEST(UnboundedWaitTest, PredicateAndDeadlineOverloadsAreClean) {
  auto findings = Lint({{"src/efes/serve/x.cc",
                         "void F(std::condition_variable& cv,\n"
                         "       std::unique_lock<std::mutex>& lock) {\n"
                         "  cv.wait(lock, [&] { return done(); });\n"
                         "  cv.wait_for(lock, std::chrono::seconds(1));\n"
                         "  cv.wait_until(lock, deadline);\n"
                         "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "unbounded-wait").empty());
}

TEST(UnboundedWaitTest, CommonImplementationFilesAreAllowlisted) {
  auto findings = Lint({{"src/efes/common/file_io.cc",
                         "void F() {\n"
                         "  std::this_thread::sleep_for(\n"
                         "      std::chrono::milliseconds(10));\n"
                         "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "unbounded-wait").empty());
}

TEST(UnboundedWaitTest, SuppressionWithReasonSilences) {
  auto findings = Lint(
      {{"src/efes/serve/x.cc",
        "void F(std::future<int>& f) {\n"
        "  // EFES_LINT_ALLOW(unbounded-wait): result is already ready\n"
        "  f.wait();\n"
        "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "unbounded-wait").empty());
}

// ----------------------------------------------------------- metric-name

TEST(MetricNameTest, FlagsUndottedAndUppercaseNames) {
  auto findings = Lint(
      {{"src/efes/core/x.cc",
        "void F(MetricsRegistry& m, TraceRecorder* r) {\n"
        "  m.GetCounter(\"tuples\").Increment(1);\n"
        "  m.GetGauge(\"Core.Size\").Set(2.0);\n"
        "  m.GetHistogram(\"core..ms\").Observe(3.0);\n"
        "  TraceSpan span(\"run\", r);\n"
        "}\n"}});
  EXPECT_EQ(FindingsOf(findings, "metric-name").size(), 4u);
}

TEST(MetricNameTest, DottedLowercaseNamesAreClean) {
  auto findings = Lint(
      {{"src/efes/core/x.cc",
        "void F(MetricsRegistry& m, TraceRecorder* r) {\n"
        "  m.GetCounter(\"core.run.tuples\").Increment(1);\n"
        "  m.GetHistogram(\"values.assess.ms\").Observe(3.0);\n"
        "  TraceSpan span(\"execute.run\", r);\n"
        "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "metric-name").empty());
}

TEST(MetricNameTest, ConcatenatedOrComputedNamesAreSkipped) {
  // Only complete single-literal names are checkable; adjacent-literal
  // concatenation and runtime-built names are out of scope.
  auto findings = Lint(
      {{"src/efes/core/x.cc",
        "void F(MetricsRegistry& m, std::string n) {\n"
        "  m.GetCounter(\"core\" \".tuples\").Increment(1);\n"
        "  m.GetCounter(n).Increment(1);\n"
        "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "metric-name").empty());
}

TEST(MetricNameTest, ServeAndCacheCounterSitesAreChecked) {
  // metric-name reads the same call sites as the registry check.
  auto findings = Lint({{"src/efes/serve/x.cc",
                         "void F() {\n"
                         "  ServeCounter(\"Requests\").Increment();\n"
                         "  CacheCounter(\"cache.hits\").Increment();\n"
                         "}\n"}});
  auto hits = FindingsOf(findings, "metric-name");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 2);
}

TEST(MetricNameTest, SuppressionWithReasonSilences) {
  auto findings = Lint(
      {{"src/efes/core/x.cc",
        "void F(MetricsRegistry& m) {\n"
        "  // EFES_LINT_ALLOW(metric-name): exercises escape rendering\n"
        "  m.GetGauge(\"g\\\"quoted\\\"\").Set(0.5);\n"
        "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "metric-name").empty());
}

// ------------------------------------------------------- lock-discipline

// A guarded member, one locked accessor, one unlocked accessor. The
// annotation lives in the header and the violation in the .cc — the
// check only works across the merged index.
constexpr char kGuardedHeader[] = R"(
#pragma once
class Counter {
 public:
  void Add(int n);
  int Total() const;
 private:
  mutable std::mutex mutex_;
  int total_ EFES_GUARDED_BY(mutex_) = 0;
};
)";

TEST(LockDisciplineTest, FlagsUnlockedAccessAcrossFiles) {
  auto findings =
      Lint({{"src/efes/x/counter.h", kGuardedHeader},
            {"src/efes/x/counter.cc",
             "void Counter::Add(int n) {\n"
             "  std::lock_guard<std::mutex> lock(mutex_);\n"
             "  total_ += n;\n"
             "}\n"
             "int Counter::Total() const {\n"
             "  return total_;\n"
             "}\n"}});
  auto hits = FindingsOf(findings, "lock-discipline");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].file, "src/efes/x/counter.cc");
  EXPECT_EQ(hits[0].line, 6);
  EXPECT_NE(hits[0].message.find("Counter::total_"), std::string::npos);
}

TEST(LockDisciplineTest, LockedAccessesAreClean) {
  auto findings =
      Lint({{"src/efes/x/counter.h", kGuardedHeader},
            {"src/efes/x/counter.cc",
             "void Counter::Add(int n) {\n"
             "  std::lock_guard<std::mutex> lock(mutex_);\n"
             "  total_ += n;\n"
             "}\n"
             "int Counter::Total() const {\n"
             "  std::unique_lock<std::mutex> lock(mutex_);\n"
             "  return total_;\n"
             "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "lock-discipline").empty());
}

TEST(LockDisciplineTest, ConstructorsAndLockedHelpersAreExempt) {
  auto findings =
      Lint({{"src/efes/x/counter.h", kGuardedHeader},
            {"src/efes/x/counter.cc",
             "Counter::Counter() {\n"
             "  total_ = 0;\n"
             "}\n"
             "void Counter::AddLocked(int n) {\n"
             "  total_ += n;\n"
             "}\n"
             "void Counter::Add(int n) {\n"
             "  std::lock_guard<std::mutex> lock(mutex_);\n"
             "  total_ += n;\n"
             "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "lock-discipline").empty());
}

TEST(LockDisciplineTest, ManualUnlockSuspendsTheRegion) {
  auto findings =
      Lint({{"src/efes/x/counter.h", kGuardedHeader},
            {"src/efes/x/counter.cc",
             "void Counter::Add(int n) {\n"
             "  std::unique_lock<std::mutex> lock(mutex_);\n"
             "  total_ += n;\n"
             "  lock.unlock();\n"
             "  total_ += n;\n"
             "}\n"}});
  auto hits = FindingsOf(findings, "lock-discipline");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 5);
}

TEST(LockDisciplineTest, DeletedAnnotationIsInferredBack) {
  // Same class without the annotation: every access still happens under
  // mutex_, so the checker demands the annotation be restored.
  auto findings =
      Lint({{"src/efes/x/counter.h",
             "#pragma once\n"
             "class Counter {\n"
             " public:\n"
             "  void Add(int n);\n"
             "  int Total() const;\n"
             " private:\n"
             "  mutable std::mutex mutex_;\n"
             "  int total_ = 0;\n"
             "};\n"},
            {"src/efes/x/counter.cc",
             "void Counter::Add(int n) {\n"
             "  std::lock_guard<std::mutex> lock(mutex_);\n"
             "  total_ += n;\n"
             "}\n"
             "int Counter::Total() const {\n"
             "  std::lock_guard<std::mutex> lock(mutex_);\n"
             "  return total_;\n"
             "}\n"}});
  auto hits = FindingsOf(findings, "lock-discipline");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("not annotated"), std::string::npos);
}

TEST(LockDisciplineTest, MixedLockedAndUnlockedMemberIsNotInferred) {
  // An unannotated member read outside any lock somewhere is not
  // "consistently locked" — no inference finding (that pattern needs a
  // human, not a lint rule).
  auto findings =
      Lint({{"src/efes/x/counter.cc",
             "void Counter::Add(int n) {\n"
             "  std::lock_guard<std::mutex> lock(mutex_);\n"
             "  total_ += n;\n"
             "}\n"
             "int Counter::Total() const {\n"
             "  return total_;\n"
             "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "lock-discipline").empty());
}

TEST(LockDisciplineTest, SuppressionWithReasonSilences) {
  auto findings =
      Lint({{"src/efes/x/counter.h", kGuardedHeader},
            {"src/efes/x/counter.cc",
             "int Counter::Total() const {\n"
             "  // EFES_LINT_ALLOW(lock-discipline): racy read is "
             "a documented estimate\n"
             "  return total_;\n"
             "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "lock-discipline").empty());
  // Still reported, as suppressed.
  bool saw_suppressed = false;
  for (const Finding& f : findings) {
    if (f.check == "lock-discipline") {
      EXPECT_TRUE(f.suppressed);
      saw_suppressed = true;
    }
  }
  EXPECT_TRUE(saw_suppressed);
}

TEST(LockDisciplineTest, LintMarkerSilencesItNextToAPerFileFinding) {
  // One marker for every check: EFES_LINT_ALLOW silences a
  // whole-program finding and a per-file finding in the same file, and
  // neither suppression is itself a bad-suppression.
  auto findings =
      Lint({{"src/efes/x/counter.h", kGuardedHeader},
            {"src/efes/x/counter.cc",
             "int Counter::Total() const {\n"
             "  // EFES_LINT_ALLOW(lock-discipline): racy read is an "
             "estimate\n"
             "  return total_;\n"
             "}\n"
             "void Counter::Pause() {\n"
             "  // EFES_LINT_ALLOW(unbounded-wait): test-only pause\n"
             "  std::this_thread::sleep_for(kTick);\n"
             "}\n"}});
  size_t suppressed = 0;
  for (const Finding& f : findings) {
    if (f.check == "lock-discipline" || f.check == "unbounded-wait") {
      EXPECT_TRUE(f.suppressed) << f.message;
      ++suppressed;
    }
  }
  EXPECT_EQ(suppressed, 2u);
  EXPECT_TRUE(FindingsOf(findings, "bad-suppression").empty());
}

// ---------------------------------------------------------- cancellation

TEST(CancellationTest, FlagsRootThatNeverReachesCheckpoint) {
  auto findings = Lint(
      {{"src/efes/mapping/m.cc",
        "Result<int> MappingModule::AssessComplexity(const Scenario& s) "
        "const {\n"
        "  return Walk(s);\n"
        "}\n"
        "Result<int> Walk(const Scenario& s) {\n"
        "  return 1;\n"
        "}\n"}});
  auto hits = FindingsOf(findings, "cancellation");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 1);
  EXPECT_NE(hits[0].message.find("AssessComplexity"), std::string::npos);
}

TEST(CancellationTest, CheckpointThroughCalleeIsClean) {
  // The root reaches CheckCancellation two hops away, across files.
  auto findings = Lint(
      {{"src/efes/mapping/m.cc",
        "Result<int> MappingModule::AssessComplexity(const Scenario& s) "
        "const {\n"
        "  return Walk(s);\n"
        "}\n"},
       {"src/efes/mapping/walk.cc",
        "Result<int> Walk(const Scenario& s) {\n"
        "  EFES_RETURN_IF_ERROR(CheckCancellation());\n"
        "  return 1;\n"
        "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "cancellation").empty());
}

TEST(CancellationTest, ParallelFanOutIsARoot) {
  auto findings = Lint(
      {{"src/efes/core/fan.cc",
        "Status FanOut(std::vector<int>& items) {\n"
        "  return ParallelFor(items, [](int i) { return Use(i); });\n"
        "}\n"}});
  auto hits = FindingsOf(findings, "cancellation");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("FanOut"), std::string::npos);
}

TEST(CancellationTest, RootsOutsideCheckpointDirsAreClean) {
  // Run() in a directory outside the checkpoint set is not a root.
  auto findings = Lint(
      {{"src/efes/matching/m.cc",
        "Status Matcher::Run() {\n"
        "  return Status::Ok();\n"
        "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "cancellation").empty());
}

TEST(CancellationTest, SuppressionWithReasonSilences) {
  auto findings = Lint(
      {{"src/efes/mapping/m.cc",
        "// EFES_LINT_ALLOW(cancellation): trivially O(1) body\n"
        "Result<int> MappingModule::AssessComplexity(const Scenario& s) "
        "const {\n"
        "  return 1;\n"
        "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "cancellation").empty());
}

// -------------------------------------------------------------- layering

TEST(LayeringTest, FlagsBackEdge) {
  auto findings = Lint(
      {{"src/efes/common/helper.h",
        "#pragma once\n"
        "#include \"efes/serve/server.h\"\n"},
       {"src/efes/serve/server.h", "#pragma once\n"}});
  auto hits = FindingsOf(findings, "layering");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].file, "src/efes/common/helper.h");
  EXPECT_EQ(hits[0].line, 2);
}

TEST(LayeringTest, DownwardAndSameRankEdgesAreClean) {
  auto findings = Lint(
      {{"src/efes/serve/server.h",
        "#pragma once\n"
        "#include \"efes/common/status.h\"\n"},
       {"src/efes/cache/cache.h",
        "#pragma once\n"
        "#include \"efes/profiling/stats.h\"\n"},
       {"src/efes/common/status.h", "#pragma once\n"},
       {"src/efes/profiling/stats.h", "#pragma once\n"}});
  EXPECT_TRUE(FindingsOf(findings, "layering").empty());
}

TEST(LayeringTest, FlagsIncludeCycle) {
  auto findings = Lint(
      {{"src/efes/core/a.h",
        "#pragma once\n#include \"efes/core/b.h\"\n"},
       {"src/efes/core/b.h",
        "#pragma once\n#include \"efes/core/a.h\"\n"}});
  auto hits = FindingsOf(findings, "layering");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("cycle"), std::string::npos);
}

TEST(LayeringTest, FlagsDirectoryMissingFromDeclaredOrder) {
  auto findings =
      Lint({{"src/efes/mystery/new_thing.h", "#pragma once\n"}});
  auto hits = FindingsOf(findings, "layering");
  ASSERT_EQ(hits.size(), 1u);
}

TEST(LayeringTest, ToolsAndTestsMayIncludeAnything) {
  auto findings = Lint(
      {{"tools/efes_cli.cc", "#include \"efes/serve/server.h\"\n"},
       {"src/efes/serve/server.h", "#pragma once\n"}});
  EXPECT_TRUE(FindingsOf(findings, "layering").empty());
}

// -------------------------------------------------------------- registry

RegistryManifests TestManifests() {
  RegistryManifests m;
  m.metrics_path = "docs/registry/metrics.md";
  m.faults_path = "docs/registry/faults.md";
  m.flags_path = "docs/registry/flags.md";
  m.metrics = {{"core.run.tuples", 1}};
  m.faults = {{"io.read", 1}};
  m.flags = {{"threads", 1}};
  return m;
}

TEST(RegistryTest, UnlistedCallSiteIsAFinding) {
  Linter linter;
  // Uses every registered name (so nothing is stale) plus one unknown.
  linter.AddFile("src/efes/core/x.cc",
                 "Status F(MetricsRegistry& m, FlagSet& flags) {\n"
                 "  m.GetCounter(\"core.run.unknown\").Increment(1);\n"
                 "  m.GetCounter(\"core.run.tuples\").Increment(1);\n"
                 "  EFES_RETURN_IF_ERROR(CheckFaultPoint(\"io.read\"));\n"
                 "  flags.AddUint(\"threads\", \"N\", \"workers\", &n);\n"
                 "  return Status::Ok();\n"
                 "}\n");
  linter.SetRegistry(TestManifests());
  auto hits = FindingsOf(linter.Run(), "registry");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 2);
  EXPECT_NE(hits[0].message.find("core.run.unknown"), std::string::npos);
}

TEST(RegistryTest, StaleManifestEntryIsAFinding) {
  Linter linter;
  linter.AddFile("src/efes/core/x.cc",
                 "void F(MetricsRegistry& m) {\n"
                 "  m.GetCounter(\"core.run.tuples\").Increment(1);\n"
                 "}\n");
  RegistryManifests manifests = TestManifests();
  manifests.metrics.push_back({"core.run.ghost", 7});
  linter.SetRegistry(std::move(manifests));
  auto hits = FindingsOf(linter.Run(), "registry");
  ASSERT_EQ(hits.size(), 3u);  // ghost metric + unused fault + flag
  EXPECT_EQ(hits[0].file, "docs/registry/faults.md");
  EXPECT_EQ(hits[1].file, "docs/registry/flags.md");
  EXPECT_EQ(hits[2].file, "docs/registry/metrics.md");
  EXPECT_EQ(hits[2].line, 7);
}

TEST(RegistryTest, ListedNamesInAllThreeKindsAreClean) {
  Linter linter;
  linter.AddFile("src/efes/core/x.cc",
                 "Status F(MetricsRegistry& m, FlagSet& flags) {\n"
                 "  m.GetCounter(\"core.run.tuples\").Increment(1);\n"
                 "  EFES_RETURN_IF_ERROR(CheckFaultPoint(\"io.read\"));\n"
                 "  flags.AddUint(\"threads\", \"N\", \"workers\", &n);\n"
                 "  return Status::Ok();\n"
                 "}\n");
  linter.SetRegistry(TestManifests());
  EXPECT_TRUE(FindingsOf(linter.Run(), "registry").empty());
}

TEST(RegistryTest, ConcatenatedNamesAreSkipped) {
  // Runtime-built families never match the complete-dotted-literal rule
  // and are documented as (dynamic) manifest lines instead.
  Linter linter;
  linter.AddFile("src/efes/core/x.cc",
                 "void F(MetricsRegistry& m, std::string p) {\n"
                 "  m.GetCounter(\"fault.\" + p + \".hits\")"
                 ".Increment(1);\n"
                 "}\n");
  // Empty manifests: the concatenation fragments must not register as
  // unlisted call sites.
  linter.SetRegistry(RegistryManifests());
  EXPECT_TRUE(FindingsOf(linter.Run(), "registry").empty());
}

TEST(RegistryTest, WithoutManifestsTheCheckIsSkipped) {
  auto findings =
      Lint({{"src/efes/core/x.cc",
             "void F(MetricsRegistry& m) {\n"
             "  m.GetCounter(\"core.run.unknown\").Increment(1);\n"
             "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "registry").empty());
}

// -------------------------------------------------------- manifest parser

TEST(ManifestParserTest, ParsesBacktickedListLines) {
  auto entries = ParseManifest(
      "# Registry\n"
      "\n"
      "Prose about `inline.code` is not an entry.\n"
      "- `core.run.tuples` — tuples integrated\n"
      "  - `serve.request.ms` — indented is fine\n"
      "- `fault.<point>.hits` (dynamic) — excluded family\n"
      "- not backticked\n");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "core.run.tuples");
  EXPECT_EQ(entries[0].line, 4);
  EXPECT_EQ(entries[1].name, "serve.request.ms");
  EXPECT_EQ(entries[1].line, 5);
}

TEST(ManifestParserTest, MissingManifestFileIsAnError) {
  auto result = LoadRegistryDir("does/not/exist");
  EXPECT_FALSE(result.ok());
}

// ------------------------------------------------------- bad-suppression

TEST(BadSuppressionTest, MissingReasonIsAFinding) {
  auto findings = Lint(
      {{"src/efes/core/x.cc",
        "void F() {\n"
        "  srand(7);  // EFES_LINT_ALLOW(nondeterminism)\n"
        "}\n"}});
  // The reasonless suppression does not silence, and is itself flagged.
  EXPECT_EQ(FindingsOf(findings, "nondeterminism").size(), 1u);
  EXPECT_EQ(FindingsOf(findings, "bad-suppression").size(), 1u);
}

TEST(BadSuppressionTest, UnknownCheckIsAFinding) {
  auto findings = Lint(
      {{"src/efes/core/x.cc",
        "// EFES_LINT_ALLOW(made-up-check): whatever\nvoid F();\n"}});
  EXPECT_EQ(FindingsOf(findings, "bad-suppression").size(), 1u);
}

TEST(BadSuppressionTest, ProseMentionIsIgnored) {
  auto findings = Lint(
      {{"src/efes/core/x.cc",
        "// Write EFES_LINT_ALLOW(<check-id>): <reason> to suppress.\n"
        "void F();\n"}});
  EXPECT_TRUE(findings.empty());
}

// ------------------------------------------------------------- rendering

TEST(RenderTest, TextAndJsonCarryFindings) {
  auto findings = Lint({{"src/efes/core/x.cc", "void F() {\n  srand(7);\n}\n"}});
  ASSERT_EQ(findings.size(), 1u);
  std::string text = RenderText(findings);
  EXPECT_NE(text.find("src/efes/core/x.cc:2:"), std::string::npos);
  EXPECT_NE(text.find("[nondeterminism]"), std::string::npos);
  EXPECT_NE(text.find("1 unsuppressed"), std::string::npos);
  std::string json = RenderJson(findings);
  EXPECT_NE(json.find("\"check\":\"nondeterminism\""), std::string::npos);
  EXPECT_NE(json.find("\"unsuppressed\":1"), std::string::npos);
  EXPECT_EQ(CountUnsuppressed(findings), 1u);
}

TEST(RenderTest, TextCarriesFindingsAndSummary) {
  // A whole-program finding renders through the same text report.
  auto findings =
      Lint({{"src/efes/common/h.h",
             "#pragma once\n#include \"efes/serve/s.h\"\n"},
            {"src/efes/serve/s.h", "#pragma once\n"}});
  ASSERT_EQ(findings.size(), 1u);
  std::string text = RenderText(findings);
  EXPECT_NE(text.find("src/efes/common/h.h:2:"), std::string::npos);
  EXPECT_NE(text.find("[layering]"), std::string::npos);
  EXPECT_NE(text.find("efes_lint: 1 unsuppressed"), std::string::npos);
}

TEST(RenderTest, CheckCatalogIsStable) {
  const auto& ids = AllCheckIds();
  EXPECT_EQ(ids.size(), 12u);
  for (const char* id :
       {"nondeterminism", "unordered-iteration", "raw-file-write",
        "header-hygiene", "banned-function", "unbounded-wait", "metric-name",
        "lock-discipline", "cancellation", "layering", "registry",
        "bad-suppression"}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), id), ids.end()) << id;
  }
}

TEST(SarifTest, RendersValidMinimalDocument) {
  auto findings =
      Lint({{"src/efes/common/h.h",
             "#pragma once\n#include \"efes/serve/s.h\"\n"},
            {"src/efes/serve/s.h", "#pragma once\n"}});
  ASSERT_EQ(findings.size(), 1u);
  std::string sarif = RenderSarif(findings);
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\":\"efes_lint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\":\"layering\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\":2"), std::string::npos);
  EXPECT_EQ(sarif.find("\"suppressions\""), std::string::npos);
}

TEST(SarifTest, SuppressedFindingsAreMarkedInSource) {
  std::vector<Finding> findings = {
      {"a.cc", 3, "layering", "msg", true}};
  std::string sarif = RenderSarif(findings);
  EXPECT_NE(sarif.find("\"level\":\"note\""), std::string::npos);
  EXPECT_NE(sarif.find("\"kind\":\"inSource\""), std::string::npos);
}

// ------------------------------------------------------------- meta-tests

#ifdef EFES_SOURCE_DIR
/// Feeds every C++ source under `dirs` of the real tree to `linter`.
void AddRealTree(std::initializer_list<const char*> dirs, Linter* linter) {
  namespace fs = std::filesystem;
  const fs::path root(EFES_SOURCE_DIR);
  size_t file_count = 0;
  for (const char* dir : dirs) {
    for (const auto& entry :
         fs::recursive_directory_iterator(root / dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".hh" && ext != ".hpp" && ext != ".cc" &&
          ext != ".cpp") {
        continue;
      }
      auto content = ReadFileToString(entry.path().string());
      ASSERT_TRUE(content.ok()) << entry.path();
      linter->AddFile(entry.path().generic_string(), content.value());
      ++file_count;
    }
  }
  ASSERT_GT(file_count, 100u);  // sanity: the walk found the tree
}

std::vector<Finding> Unsuppressed(const std::vector<Finding>& findings) {
  std::vector<Finding> bad;
  for (const Finding& f : findings) {
    if (!f.suppressed) bad.push_back(f);
  }
  return bad;
}

TEST(LintTreeMetaTest, RealTreeIsLintClean) {
  // Every check but the registry one, over all four trees.
  Linter linter;
  ASSERT_NO_FATAL_FAILURE(
      AddRealTree({"src", "tools", "tests", "bench"}, &linter));
  const auto bad = Unsuppressed(linter.Run());
  EXPECT_TRUE(bad.empty()) << RenderText(bad);
}

TEST(AnalyzeTreeMetaTest, RealTreeIsAnalyzeClean) {
  // The whole-program scope (the shipped tree) against the checked-in
  // registry.
  Linter linter;
  ASSERT_NO_FATAL_FAILURE(AddRealTree({"src", "tools"}, &linter));
  auto manifests = LoadRegistryDir(
      (std::filesystem::path(EFES_SOURCE_DIR) / "docs" / "registry")
          .string());
  ASSERT_TRUE(manifests.ok()) << manifests.status().ToString();
  linter.SetRegistry(std::move(manifests).value());
  const auto bad = Unsuppressed(linter.Run());
  EXPECT_TRUE(bad.empty()) << RenderText(bad);
}
#endif  // EFES_SOURCE_DIR

}  // namespace
}  // namespace efes::lint
