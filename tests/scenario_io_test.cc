// Tests for scenario directory persistence.

#include "efes/scenario/scenario_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "efes/common/fault.h"
#include "efes/common/file_io.h"
#include "efes/common/string_util.h"
#include "efes/experiment/default_pipeline.h"
#include "efes/scenario/paper_example.h"

#include "test_paths.h"

namespace efes {
namespace {

TEST(CorrespondenceLineTest, ParsesBothGranularities) {
  auto relation = ParseCorrespondenceLine("albums -> records");
  ASSERT_TRUE(relation.ok());
  EXPECT_TRUE(relation->is_relation_level());
  EXPECT_EQ(relation->source_relation, "albums");
  EXPECT_EQ(relation->target_relation, "records");

  auto attribute = ParseCorrespondenceLine("albums.name -> records.title");
  ASSERT_TRUE(attribute.ok());
  EXPECT_TRUE(attribute->is_attribute_level());
  EXPECT_EQ(attribute->source_attribute, "name");
  EXPECT_EQ(attribute->target_attribute, "title");
}

TEST(CorrespondenceLineTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseCorrespondenceLine("no arrow here").ok());
  EXPECT_FALSE(ParseCorrespondenceLine(" -> records").ok());
  EXPECT_FALSE(ParseCorrespondenceLine("albums -> ").ok());
  EXPECT_FALSE(ParseCorrespondenceLine("albums.name -> records").ok());
}

TEST(CorrespondenceLineTest, ToleratesWhitespaceEverywhere) {
  auto packed = ParseCorrespondenceLine("albums.name->records.title");
  ASSERT_TRUE(packed.ok());
  EXPECT_EQ(packed->source_attribute, "name");

  auto spread =
      ParseCorrespondenceLine("  albums .  name  ->  records . title  ");
  ASSERT_TRUE(spread.ok()) << spread.status().ToString();
  EXPECT_EQ(spread->source_relation, "albums");
  EXPECT_EQ(spread->source_attribute, "name");
  EXPECT_EQ(spread->target_relation, "records");
  EXPECT_EQ(spread->target_attribute, "title");

  auto relation = ParseCorrespondenceLine("\talbums\t->\trecords\t");
  ASSERT_TRUE(relation.ok());
  EXPECT_TRUE(relation->is_relation_level());
}

TEST(CorrespondenceLineTest, RejectsEmptyNames) {
  auto no_relation = ParseCorrespondenceLine(".name -> records.title");
  ASSERT_FALSE(no_relation.ok());
  EXPECT_NE(no_relation.status().message().find("empty relation name"),
            std::string::npos);

  auto no_attribute = ParseCorrespondenceLine("albums. -> records.title");
  ASSERT_FALSE(no_attribute.ok());
  EXPECT_NE(no_attribute.status().message().find("empty attribute name"),
            std::string::npos);

  EXPECT_FALSE(ParseCorrespondenceLine("albums.name -> .title").ok());
  EXPECT_FALSE(ParseCorrespondenceLine("albums.name -> records.").ok());
  EXPECT_FALSE(ParseCorrespondenceLine(" . -> . ").ok());
}

TEST(CorrespondencesDocTest, RoundTrip) {
  CorrespondenceSet set;
  set.AddRelation("albums", "records");
  set.AddAttribute("albums", "name", "records", "title");
  set.AddAttribute("songs", "length", "tracks", "duration");
  auto reparsed = ParseCorrespondences(WriteCorrespondences(set));
  ASSERT_TRUE(reparsed.ok());
  ASSERT_EQ(reparsed->size(), 3u);
  EXPECT_EQ(reparsed->all()[0].ToString(), "albums -> records");
  EXPECT_EQ(reparsed->all()[2].ToString(),
            "songs.length -> tracks.duration");
}

TEST(CorrespondencesDocTest, CommentsAndBlanksIgnored) {
  auto set = ParseCorrespondences(R"(
# curated by hand
albums -> records

albums.name -> records.title   # the title feed
)");
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->size(), 2u);
}

class ScenarioIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    directory_ = TestScratchPath("efes_scenario_io_test");
    std::filesystem::remove_all(directory_);
  }
  void TearDown() override { std::filesystem::remove_all(directory_); }

  std::string directory_;
};

TEST_F(ScenarioIoTest, SaveLoadRoundTripPreservesEverything) {
  PaperExampleOptions options;
  options.album_count = 120;
  options.multi_artist_albums = 30;
  options.orphan_artists = 10;
  options.song_count = 150;
  auto original = MakePaperExample(options);
  ASSERT_TRUE(original.ok());

  ASSERT_TRUE(SaveScenario(*original, directory_).ok());
  auto loaded = LoadScenario(directory_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Schemas.
  EXPECT_EQ(loaded->target.schema().relations().size(),
            original->target.schema().relations().size());
  EXPECT_EQ(loaded->target.schema().constraints().size(),
            original->target.schema().constraints().size());
  ASSERT_EQ(loaded->sources.size(), 1u);
  EXPECT_EQ(loaded->sources[0].correspondences.size(),
            original->sources[0].correspondences.size());

  // Data, cell by cell for one table.
  const Table* original_albums = *original->sources[0].database.table(
      "albums");
  const Table* loaded_albums = *loaded->sources[0].database.table("albums");
  ASSERT_EQ(loaded_albums->row_count(), original_albums->row_count());
  for (size_t r = 0; r < original_albums->row_count(); ++r) {
    for (size_t c = 0; c < original_albums->column_count(); ++c) {
      EXPECT_EQ(loaded_albums->at(r, c), original_albums->at(r, c));
    }
  }
}

TEST_F(ScenarioIoTest, LoadedScenarioEstimatesIdentically) {
  PaperExampleOptions options;
  options.album_count = 150;
  options.multi_artist_albums = 40;
  options.orphan_artists = 12;
  options.song_count = 200;
  auto original = MakePaperExample(options);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(SaveScenario(*original, directory_).ok());
  auto loaded = LoadScenario(directory_);
  ASSERT_TRUE(loaded.ok());

  EfesEngine engine = MakeDefaultEngine();
  auto original_estimate =
      engine.Run(*original);
  auto loaded_estimate =
      engine.Run(*loaded);
  ASSERT_TRUE(original_estimate.ok());
  ASSERT_TRUE(loaded_estimate.ok());
  EXPECT_DOUBLE_EQ(loaded_estimate->estimate.TotalMinutes(),
                   original_estimate->estimate.TotalMinutes());
}

TEST_F(ScenarioIoTest, LoadMissingDirectoryFails) {
  auto loaded = LoadScenario(directory_ + "/does_not_exist");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

/// Lenient loads of damaged scenario directories: strict keeps the
/// historical fail-fast contract, recover salvages what it can and
/// reports the rest as DataIssues.
class LenientLoadTest : public ScenarioIoTest {
 protected:
  void SetUp() override {
    ScenarioIoTest::SetUp();
    PaperExampleOptions options;
    options.album_count = 30;
    options.song_count = 40;
    auto scenario = MakePaperExample(options);
    ASSERT_TRUE(scenario.ok());
    ASSERT_TRUE(SaveScenario(*scenario, directory_).ok());
    // The scenario has exactly one source; find its directory.
    for (const auto& entry : std::filesystem::directory_iterator(
             directory_ + "/sources")) {
      source_dir_ = entry.path().string();
    }
    ASSERT_FALSE(source_dir_.empty());
  }

  static void Append(const std::string& path, const std::string& text) {
    // EFES_LINT_ALLOW(raw-file-write): deliberately corrupts a file in place to exercise recovery
    std::ofstream out(path, std::ios::app);
    out << text;
  }

  static LoadOptions Recover() {
    LoadOptions options;
    options.mode = LoadOptions::Mode::kRecover;
    return options;
  }

  /// Replaces the first cell of data row `row` (1-based) of `path`.
  static void SetFirstCell(const std::string& path, size_t row,
                           const std::string& cell) {
    Result<std::string> text = ReadFileToString(path);
    ASSERT_TRUE(text.ok());
    std::vector<std::string> lines = Split(*text, '\n');
    ASSERT_LT(row, lines.size());
    lines[row] = cell + lines[row].substr(lines[row].find(','));
    std::string rewritten;
    for (size_t i = 0; i < lines.size(); ++i) {
      if (i > 0) rewritten += '\n';
      rewritten += lines[i];
    }
    ASSERT_TRUE(WriteFileAtomic(path, rewritten).ok());
  }

  std::string Csv(const std::string& table) const {
    return source_dir_ + "/data/" + table + ".csv";
  }

  static size_t RowCount(const IntegrationScenario& scenario,
                         const std::string& table) {
    auto loaded = scenario.sources.at(0).database.table(table);
    EXPECT_TRUE(loaded.ok());
    return loaded.ok() ? (*loaded)->row_count() : 0;
  }

  std::string source_dir_;
};

TEST_F(LenientLoadTest, RecoverSkipsOnlyTheRejectedRow) {
  SetFirstCell(Csv("albums"), 9, "x9");

  // Strict: the first rejected row fails the load, as before.
  auto strict = LoadScenario(directory_);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kTypeMismatch);
  EXPECT_EQ(strict.status().message(), "cannot cast x9 (text) to integer");

  ScenarioLoadReport report;
  auto loaded = LoadScenario(directory_, Recover(), &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(RowCount(*loaded, "albums"), 29u);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].component, "data");
  EXPECT_EQ(report.issues[0].location, Csv("albums") + ", row 9");
  EXPECT_EQ(report.issues[0].message,
            "row rejected: type mismatch: cannot cast x9 (text) to integer");
}

TEST_F(LenientLoadTest, CsvIssuesNameTheirFile) {
  // A short row whose one cell is not an id: padded, then rejected.
  Append(Csv("albums"), "zz\n");
  Append(Csv("songs"), "\"never closed");

  ScenarioLoadReport report;
  auto loaded = LoadScenario(directory_, Recover(), &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  std::vector<std::string> rendered;
  for (const DataIssue& issue : report.issues) {
    rendered.push_back(issue.ToString());
  }
  EXPECT_EQ(rendered,
            (std::vector<std::string>{
                "csv (" + Csv("albums") +
                    ", row 31): short row padded from 1 to 3 cells",
                "data (" + Csv("albums") +
                    ", row 31): row rejected: type mismatch: cannot cast zz "
                    "(text) to integer",
                "csv (" + Csv("songs") +
                    ", end of input): unterminated quoted field closed at "
                    "end of input",
                "csv (" + Csv("songs") +
                    ", row 41): short row padded from 1 to 4 cells",
                "data (" + Csv("songs") +
                    ", row 41): row rejected: type mismatch: cannot cast "
                    "never closed (text) to integer",
            }));
  EXPECT_EQ(RowCount(*loaded, "albums"), 30u);
}

TEST_F(LenientLoadTest, IssuesFollowFileOrderThenParseThenRowOrder) {
  // Rejected rows in two files, listed per file in schema order (albums
  // before songs); within a file the repaired short row comes first.
  SetFirstCell(Csv("albums"), 7, "seven");
  SetFirstCell(Csv("albums"), 3, "three");
  SetFirstCell(Csv("songs"), 2, "two");
  Append(Csv("songs"), "1\n");

  ScenarioLoadReport report;
  auto loaded = LoadScenario(directory_, Recover(), &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  std::vector<std::string> locations;
  for (const DataIssue& issue : report.issues) {
    locations.push_back(issue.component + " " + issue.location);
  }
  EXPECT_EQ(locations, (std::vector<std::string>{
                           "data " + Csv("albums") + ", row 3",
                           "data " + Csv("albums") + ", row 7",
                           "csv " + Csv("songs") + ", row 41",
                           "data " + Csv("songs") + ", row 2",
                       }));
  EXPECT_EQ(RowCount(*loaded, "albums"), 28u);
  EXPECT_EQ(RowCount(*loaded, "songs"), 40u);
}

TEST_F(LenientLoadTest, StrictErrorInAnEarlierFileBeatsALaterReadFault) {
  // Every file is read before any is parsed, so the fault below fires on
  // songs.csv, which a sequential loader would never have reached; the
  // albums.csv error still comes first in load order.
  Append(Csv("albums"), "zz\n");
  size_t target_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           directory_ + "/target/data")) {
    if (entry.path().extension() == ".csv") ++target_files;
  }
  // Source CSVs are read in schema order: albums, then songs.
  const std::string spec = "csv.read:n=" + std::to_string(target_files + 2);
  FaultRegistry::Global().DisarmAll();
  ASSERT_TRUE(FaultRegistry::Global().ArmFromString(spec).ok());
  auto strict = LoadScenario(directory_);
  const uint64_t hits = FaultRegistry::Global().HitCount("csv.read");
  FaultRegistry::Global().DisarmAll();
  EXPECT_GE(hits, target_files + 2);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kParseError);
  EXPECT_EQ(strict.status().message(),
            "CSV row 31 has 1 cells, expected 3 (" + Csv("albums") + ")");
}

TEST_F(LenientLoadTest, StrictParseErrorStillBeatsAnEarlierRejectedRow) {
  // The whole file parses before any row is judged, so the arity error
  // in the last row wins over the type error in row 2.
  SetFirstCell(Csv("albums"), 2, "two");
  Append(Csv("albums"), "zz\n");
  auto strict = LoadScenario(directory_);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kParseError);
  EXPECT_EQ(strict.status().message(),
            "CSV row 31 has 1 cells, expected 3 (" + Csv("albums") + ")");
}

TEST_F(LenientLoadTest, RecoversFromCorruptCorrespondences) {
  Append(source_dir_ + "/correspondences.txt",
         "no arrow here\nghost_rel -> no_such_target\n");

  // Strict: the unparseable line aborts the load.
  EXPECT_FALSE(LoadScenario(directory_).ok());

  ScenarioLoadReport report;
  auto loaded = LoadScenario(directory_, Recover(), &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(report.degraded);
  ASSERT_GE(report.issues.size(), 2u);
  EXPECT_EQ(loaded->sources.size(), 1u);
  // The salvaged scenario still validates and estimates.
  EXPECT_TRUE(loaded->Validate().ok());
  bool saw_skipped = false;
  bool saw_dropped = false;
  for (const DataIssue& issue : report.issues) {
    if (issue.message.find("line skipped") != std::string::npos) {
      saw_skipped = true;
    }
    if (issue.message.find("correspondence dropped") != std::string::npos) {
      saw_dropped = true;
    }
  }
  EXPECT_TRUE(saw_skipped);
  EXPECT_TRUE(saw_dropped);
}

TEST_F(LenientLoadTest, SkipsSourceWithBrokenSchema) {
  ASSERT_TRUE(
      WriteFileAtomic(source_dir_ + "/schema.sql", "NOT DDL AT ALL(((")
          .ok());

  EXPECT_FALSE(LoadScenario(directory_).ok());

  ScenarioLoadReport report;
  auto loaded = LoadScenario(directory_, Recover(), &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(report.degraded);
  EXPECT_TRUE(loaded->sources.empty());
  bool saw_source_skipped = false;
  for (const DataIssue& issue : report.issues) {
    if (issue.message.find("source skipped") != std::string::npos) {
      saw_source_skipped = true;
    }
  }
  EXPECT_TRUE(saw_source_skipped);
}

TEST_F(LenientLoadTest, RepairsMalformedTableCsv) {
  // A trailing short row: strict rejects the arity mismatch, recover
  // pads it and reports what happened.
  Append(source_dir_ + "/data/albums.csv", "zz\n");

  EXPECT_FALSE(LoadScenario(directory_).ok());

  ScenarioLoadReport report;
  auto loaded = LoadScenario(directory_, Recover(), &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(report.degraded);
  EXPECT_FALSE(report.issues.empty());
}

TEST_F(LenientLoadTest, CleanDirectoryIsNotDegraded) {
  ScenarioLoadReport report;
  auto loaded = LoadScenario(directory_, Recover(), &report);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(report.degraded);
  EXPECT_TRUE(report.issues.empty());

  // Recover mode on a clean directory loads the same scenario as strict.
  auto strict = LoadScenario(directory_);
  ASSERT_TRUE(strict.ok());
  EXPECT_EQ(loaded->sources.size(), strict->sources.size());
  EXPECT_EQ(loaded->sources[0].correspondences.size(),
            strict->sources[0].correspondences.size());
  EXPECT_EQ(loaded->sources[0].database.TotalRowCount(),
            strict->sources[0].database.TotalRowCount());
}

TEST_F(ScenarioIoTest, EmptyTablesNeedNoCsvFiles) {
  // A scenario whose source tables are empty saves without data files and
  // loads back.
  Schema target_schema("t");
  (void)target_schema.AddRelation(
      RelationDef("t", {{"a", DataType::kText}}));
  Schema source_schema("s");
  (void)source_schema.AddRelation(
      RelationDef("s", {{"a", DataType::kText}}));
  IntegrationScenario scenario(
      "empty", std::move(*Database::Create(std::move(target_schema))));
  scenario.AddSource(std::move(*Database::Create(std::move(source_schema))),
                     CorrespondenceSet());
  ASSERT_TRUE(SaveScenario(scenario, directory_).ok());
  auto loaded = LoadScenario(directory_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->sources[0].database.TotalRowCount(), 0u);
}

}  // namespace
}  // namespace efes
