// The parallel scenario loader against itself and against a reference.
//
// LoadScenario reads every file on the calling thread in canonical order,
// scans and casts each CSV file in its own pool task, and merges the
// results in canonical order. These tests pin what that must not change:
//   * thread invariance — the status, the DataIssue list, and every table
//     cell (type and value) are the same at 1, 4 and 8 threads, in strict
//     and recover mode, on the paper example, the eight case studies, the
//     fuzz corpus, and seeded corruptions of a subset;
//   * the reference — on clean inputs the loaded databases equal what
//     per-file ParseCsv plus Database::LoadCsv builds;
//   * fault order — io.read, csv.read and parallel.task armed with n=K
//     give the same status at every thread count, for every K;
//   * telemetry — one scenario.load span, one csv.parse span per file,
//     and the file and byte counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "efes/common/fault.h"
#include "efes/common/metrics.h"
#include "efes/common/file_io.h"
#include "efes/common/parallel.h"
#include "efes/common/random.h"
#include "efes/common/string_util.h"
#include "efes/relational/schema_text.h"
#include "efes/scenario/bibliographic.h"
#include "efes/scenario/fuzzer.h"
#include "efes/scenario/music.h"
#include "efes/scenario/paper_example.h"
#include "efes/scenario/scenario_io.h"
#include "efes/telemetry/trace.h"

#include "corruption.h"
#include "test_paths.h"

#ifndef EFES_SOURCE_DIR
#error "scenario_load_test requires EFES_SOURCE_DIR (see tests/CMakeLists.txt)"
#endif

namespace efes {
namespace {

namespace fs = std::filesystem;

const size_t kThreadCounts[] = {1, 4, 8};

/// Everything a load produces.
struct Loaded {
  Status status;
  std::vector<DataIssue> issues;
  std::optional<IntegrationScenario> scenario;
};

Loaded Load(const std::string& dir, LoadOptions::Mode mode, size_t threads) {
  SetThreadCountOverride(threads);
  LoadOptions options;
  options.mode = mode;
  ScenarioLoadReport report;
  Result<IntegrationScenario> scenario = LoadScenario(dir, options, &report);
  SetThreadCountOverride(0);
  Loaded loaded;
  loaded.status = scenario.status();
  loaded.issues = std::move(report.issues);
  if (scenario.ok()) loaded.scenario.emplace(std::move(*scenario));
  return loaded;
}

/// Same type and same value; reals compare bit for bit, so NaN cells
/// parsed from "nan" compare equal to themselves.
bool SameCell(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case DataType::kNull:
      return true;
    case DataType::kBoolean:
      return a.AsBoolean() == b.AsBoolean();
    case DataType::kInteger:
      return a.AsInteger() == b.AsInteger();
    case DataType::kReal: {
      const double x = a.AsReal();
      const double y = b.AsReal();
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    case DataType::kText:
      return a.AsText() == b.AsText();
  }
  return false;
}

void ExpectSameDatabase(const Database& expected, const Database& actual) {
  EXPECT_EQ(WriteSchemaText(expected.schema()),
            WriteSchemaText(actual.schema()));
  ASSERT_EQ(expected.tables().size(), actual.tables().size());
  for (size_t t = 0; t < expected.tables().size(); ++t) {
    const Table& want = expected.tables()[t];
    const Table& got = actual.tables()[t];
    SCOPED_TRACE(expected.name() + "." + want.name());
    ASSERT_EQ(want.row_count(), got.row_count());
    ASSERT_EQ(want.column_count(), got.column_count());
    for (size_t c = 0; c < want.column_count(); ++c) {
      for (size_t r = 0; r < want.row_count(); ++r) {
        if (!SameCell(want.at(r, c), got.at(r, c))) {
          ADD_FAILURE() << "row " << r << " column " << c << ": "
                        << want.at(r, c) << " vs " << got.at(r, c);
          return;
        }
      }
    }
  }
}

void ExpectSameScenario(const IntegrationScenario& expected,
                        const IntegrationScenario& actual) {
  EXPECT_EQ(expected.name, actual.name);
  ExpectSameDatabase(expected.target, actual.target);
  ASSERT_EQ(expected.sources.size(), actual.sources.size());
  for (size_t s = 0; s < expected.sources.size(); ++s) {
    ExpectSameDatabase(expected.sources[s].database,
                       actual.sources[s].database);
    EXPECT_EQ(WriteCorrespondences(expected.sources[s].correspondences),
              WriteCorrespondences(actual.sources[s].correspondences));
  }
}

void ExpectSameLoad(const Loaded& expected, const Loaded& actual) {
  EXPECT_EQ(expected.status.ToString(), actual.status.ToString());
  ASSERT_EQ(expected.issues.size(), actual.issues.size());
  for (size_t i = 0; i < expected.issues.size(); ++i) {
    EXPECT_EQ(expected.issues[i].ToString(), actual.issues[i].ToString());
  }
  ASSERT_EQ(expected.scenario.has_value(), actual.scenario.has_value());
  if (expected.scenario.has_value()) {
    ExpectSameScenario(*expected.scenario, *actual.scenario);
  }
}

/// Loads `dir` in both modes at every thread count and expects the
/// 1-thread result at 4 and 8 threads too.
void ExpectThreadInvariant(const std::string& dir) {
  for (LoadOptions::Mode mode :
       {LoadOptions::Mode::kStrict, LoadOptions::Mode::kRecover}) {
    SCOPED_TRACE(mode == LoadOptions::Mode::kStrict ? "strict" : "recover");
    const Loaded baseline = Load(dir, mode, kThreadCounts[0]);
    for (size_t threads : kThreadCounts) {
      if (threads == kThreadCounts[0]) continue;
      SCOPED_TRACE("threads " + std::to_string(threads));
      ExpectSameLoad(baseline, Load(dir, mode, threads));
    }
  }
}

/// The databases of `dir` built the pre-fan-out way: ParseCsv on each
/// file, then Database::LoadCsv.
Result<Database> ReferenceDatabase(const fs::path& dir,
                                   const std::string& name) {
  EFES_ASSIGN_OR_RETURN(std::string ddl,
                        ReadFileToString((dir / "schema.sql").string()));
  EFES_ASSIGN_OR_RETURN(Schema schema, ParseSchemaText(ddl, name));
  EFES_ASSIGN_OR_RETURN(Database database,
                        Database::Create(std::move(schema)));
  for (const RelationDef& relation : database.schema().relations()) {
    fs::path csv = dir / "data" / (relation.name() + ".csv");
    if (!fs::exists(csv)) continue;
    EFES_ASSIGN_OR_RETURN(std::string text, ReadFileToString(csv.string()));
    EFES_ASSIGN_OR_RETURN(CsvDocument doc, ParseCsv(text));
    EFES_RETURN_IF_ERROR(database.LoadCsv(relation.name(), doc));
  }
  return database;
}

void ExpectMatchesReference(const std::string& dir) {
  const Loaded loaded = Load(dir, LoadOptions::Mode::kStrict, 4);
  ASSERT_TRUE(loaded.status.ok()) << loaded.status;
  const IntegrationScenario& scenario = *loaded.scenario;
  fs::path root(dir);
  Result<Database> target = ReferenceDatabase(root / "target", "target");
  ASSERT_TRUE(target.ok()) << target.status();
  ExpectSameDatabase(*target, scenario.target);
  for (const SourceBinding& source : scenario.sources) {
    Result<Database> reference = ReferenceDatabase(
        root / "sources" / source.database.name(), source.database.name());
    ASSERT_TRUE(reference.ok()) << reference.status();
    ExpectSameDatabase(*reference, source.database);
  }
}

std::vector<uint64_t> CorpusSeeds() {
  Result<std::string> text =
      ReadFileToString(std::string(EFES_SOURCE_DIR) + "/data/fuzz_corpus.txt");
  EXPECT_TRUE(text.ok()) << text.status();
  std::vector<uint64_t> seeds;
  if (!text.ok()) return seeds;
  for (const std::string& raw_line : Split(*text, '\n')) {
    // Own the substring: Trim returns a view into its argument.
    const std::string uncommented = raw_line.substr(0, raw_line.find('#'));
    std::string_view line = Trim(uncommented);
    if (!line.empty()) seeds.push_back(std::stoull(std::string(line)));
  }
  return seeds;
}

/// Every scenario the invariance tests load, saved under one temporary
/// directory per test.
class ScenarioLoadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = TestScratchPath("efes_scenario_load_" +
                            std::string(::testing::UnitTest::GetInstance()
                                            ->current_test_info()
                                            ->name()));
    fs::remove_all(root_);
  }
  void TearDown() override {
    SetThreadCountOverride(0);
    FaultRegistry::Global().DisarmAll();
    fs::remove_all(root_);
  }

  std::string Save(const IntegrationScenario& scenario,
                   const std::string& name) {
    const std::string dir = root_ + "/" + name;
    Status saved = SaveScenario(scenario, dir);
    EXPECT_TRUE(saved.ok()) << saved;
    return dir;
  }

  std::string SavePaperExample() {
    auto scenario = MakePaperExample();
    EXPECT_TRUE(scenario.ok());
    return Save(*scenario, "paper");
  }

  std::vector<std::string> SaveCaseStudies() {
    std::vector<std::string> dirs;
    auto music = MakeAllMusicScenarios();
    auto biblio = MakeAllBiblioScenarios();
    EXPECT_TRUE(music.ok() && biblio.ok());
    if (!music.ok() || !biblio.ok()) return dirs;
    for (const IntegrationScenario& scenario : *music) {
      dirs.push_back(Save(scenario, "music" + std::to_string(dirs.size())));
    }
    for (const IntegrationScenario& scenario : *biblio) {
      dirs.push_back(Save(scenario, "biblio" + std::to_string(dirs.size())));
    }
    return dirs;
  }

  std::string SaveFuzzSeed(uint64_t seed) {
    auto fuzzed = FuzzScenario(seed);
    EXPECT_TRUE(fuzzed.ok()) << fuzzed.status();
    return Save(fuzzed->scenario, "fuzz" + std::to_string(seed));
  }

  std::string root_;
};

TEST_F(ScenarioLoadTest, PaperExampleAndCaseStudiesAreThreadInvariant) {
  std::vector<std::string> dirs = SaveCaseStudies();
  ASSERT_EQ(dirs.size(), 8u);
  dirs.push_back(SavePaperExample());
  for (const std::string& dir : dirs) {
    SCOPED_TRACE(dir);
    ExpectThreadInvariant(dir);
    ExpectMatchesReference(dir);
  }
}

TEST_F(ScenarioLoadTest, FuzzCorpusIsThreadInvariant) {
  const std::vector<uint64_t> seeds = CorpusSeeds();
  ASSERT_GE(seeds.size(), 50u);
  for (uint64_t seed : seeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string dir = SaveFuzzSeed(seed);
    ExpectThreadInvariant(dir);
    ExpectMatchesReference(dir);
  }
}

TEST_F(ScenarioLoadTest, CorruptedScenariosAreThreadInvariant) {
  // Every file of each scenario is mangled with some probability, so the
  // loads fail, skip and repair in many different places.
  std::vector<std::string> dirs = {SavePaperExample()};
  for (uint64_t seed : {3, 11, 29}) dirs.push_back(SaveFuzzSeed(seed));
  Random rng(20261017);
  size_t strict_failures = 0;
  size_t issue_lists = 0;
  for (const std::string& original : dirs) {
    for (int variant = 0; variant < 6; ++variant) {
      const std::string dir = original + "_corrupt" + std::to_string(variant);
      fs::copy(original, dir, fs::copy_options::recursive);
      std::vector<std::string> files;
      for (const fs::directory_entry& entry :
           fs::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file()) files.push_back(entry.path().string());
      }
      std::sort(files.begin(), files.end());
      for (const std::string& file : files) {
        if (!rng.Bernoulli(0.3)) continue;
        Result<std::string> text = ReadFileToString(file);
        ASSERT_TRUE(text.ok());
        ASSERT_TRUE(WriteFileAtomic(file, Corrupt(*text, rng)).ok());
      }
      SCOPED_TRACE(dir);
      ExpectThreadInvariant(dir);
      if (!Load(dir, LoadOptions::Mode::kStrict, 1).status.ok()) {
        ++strict_failures;
      }
      if (Load(dir, LoadOptions::Mode::kRecover, 1).issues.size() > 1) {
        ++issue_lists;
      }
    }
  }
  // The corruptions exercise both the strict error order and the
  // recover-mode merge of several issues.
  EXPECT_GE(strict_failures, 10u);
  EXPECT_GE(issue_lists, 5u);
}

TEST_F(ScenarioLoadTest, LoadReportsItsSpansAndCounters) {
  const std::string dir = SavePaperExample();
  size_t files = 0;
  uint64_t bytes = 0;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(dir)) {
    if (entry.path().extension() != ".csv") continue;
    ++files;
    bytes += entry.file_size();
  }
  ASSERT_GT(files, 0u);
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.set_enabled(true);
  const Loaded loaded = Load(dir, LoadOptions::Mode::kStrict, 4);
  recorder.set_enabled(false);
  ASSERT_TRUE(loaded.status.ok()) << loaded.status;
  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(after.CounterValue("scenario.load.files"),
            before.CounterValue("scenario.load.files") + files);
  EXPECT_EQ(after.CounterValue("scenario.load.bytes"),
            before.CounterValue("scenario.load.bytes") + bytes);
  size_t load_spans = 0;
  size_t parse_spans = 0;
  for (const TraceEvent& event : recorder.events()) {
    if (event.name == "scenario.load") ++load_spans;
    if (event.name == "csv.parse") ++parse_spans;
  }
  recorder.Clear();
  EXPECT_EQ(load_spans, 1u);
  EXPECT_EQ(parse_spans, files);
}

/// The CSV files of a clean scenario directory in load order: the
/// target's, then each source's (sources sorted by name), each database's
/// in schema order.
std::vector<std::string> CanonicalCsvFiles(const std::string& dir) {
  std::vector<std::string> files;
  const Loaded loaded = Load(dir, LoadOptions::Mode::kStrict, 1);
  EXPECT_TRUE(loaded.status.ok()) << loaded.status;
  if (!loaded.status.ok()) return files;
  auto add = [&files](const fs::path& database_dir, const Database& database) {
    for (const RelationDef& relation : database.schema().relations()) {
      fs::path csv = database_dir / "data" / (relation.name() + ".csv");
      if (fs::exists(csv)) files.push_back(csv.string());
    }
  };
  add(fs::path(dir) / "target", loaded.scenario->target);
  for (const SourceBinding& source : loaded.scenario->sources) {
    add(fs::path(dir) / "sources" / source.database.name(), source.database);
  }
  return files;
}

/// Loads `dir` with `spec` armed, at `threads` threads.
Loaded LoadWithFault(const std::string& dir, LoadOptions::Mode mode,
                     const std::string& spec, size_t threads) {
  FaultRegistry::Global().DisarmAll();
  EXPECT_TRUE(FaultRegistry::Global().ArmFromString(spec).ok());
  Loaded loaded = Load(dir, mode, threads);
  FaultRegistry::Global().DisarmAll();
  return loaded;
}

TEST_F(ScenarioLoadTest, NthReadFaultGivesTheSameStatusAtAnyThreadCount) {
  const std::vector<std::string> dirs = {SavePaperExample(),
                                         SaveFuzzSeed(7)};
  for (const std::string& dir : dirs) {
    const std::vector<std::string> csv_files = CanonicalCsvFiles(dir);
    for (const char* point : {"io.read", "csv.read", "parallel.task"}) {
      // Count the point's hits on a clean load; K runs one past them.
      FaultRegistry::Global().DisarmAll();
      ASSERT_TRUE(FaultRegistry::Global()
                      .ArmFromString(std::string(point) + ":n=1000000")
                      .ok());
      ASSERT_TRUE(Load(dir, LoadOptions::Mode::kStrict, 1).status.ok());
      const uint64_t hits = FaultRegistry::Global().HitCount(point);
      ASSERT_GT(hits, 0u) << point;
      for (LoadOptions::Mode mode :
           {LoadOptions::Mode::kStrict, LoadOptions::Mode::kRecover}) {
        for (uint64_t k = 1; k <= hits + 1; ++k) {
          const std::string spec =
              std::string(point) + ":n=" + std::to_string(k);
          SCOPED_TRACE(dir + " " + spec +
                       (mode == LoadOptions::Mode::kStrict ? " strict"
                                                           : " recover"));
          const Loaded baseline = LoadWithFault(dir, mode, spec, 1);
          if (k > hits) {
            EXPECT_TRUE(baseline.status.ok());
          } else if (mode == LoadOptions::Mode::kRecover &&
                     std::string(point) == "csv.read") {
            // The k-th hit skips the k-th CSV file in load order.
            ASSERT_LE(k, csv_files.size());
            ASSERT_FALSE(baseline.issues.empty());
            EXPECT_EQ(baseline.issues[0].location, csv_files[k - 1]);
            EXPECT_EQ(baseline.issues[0].message.rfind("table skipped: ", 0),
                      0u);
          }
          for (size_t threads : {4, 8}) {
            ExpectSameLoad(baseline,
                           LoadWithFault(dir, mode, spec, threads));
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace efes
