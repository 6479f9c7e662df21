// Tests for the integration executor — and, through it, a validation of
// the whole estimation pipeline: the work the executor actually performs
// must equal what the detectors predicted without integrating.

#include "efes/execute/integration_executor.h"

#include <gtest/gtest.h>
#include <memory>

#include "efes/scenario/bibliographic.h"
#include "efes/scenario/music.h"
#include "efes/scenario/paper_example.h"

namespace efes {
namespace {

class ExecutorPaperExampleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    options_small_ = std::make_unique<PaperExampleOptions>();
    options_small_->album_count = 400;
    options_small_->multi_artist_albums = 90;
    options_small_->orphan_artists = 25;
    options_small_->song_count = 500;
    auto scenario = MakePaperExample(*options_small_);
    ASSERT_TRUE(scenario.ok());
    scenario_ = std::make_unique<IntegrationScenario>(std::move(*scenario));
  }
  static void TearDownTestSuite() {
    scenario_.reset();
    options_small_.reset();
  }
  static std::unique_ptr<PaperExampleOptions> options_small_;
  static std::unique_ptr<IntegrationScenario> scenario_;
};

std::unique_ptr<PaperExampleOptions> ExecutorPaperExampleTest::options_small_;
std::unique_ptr<IntegrationScenario> ExecutorPaperExampleTest::scenario_;

TEST_F(ExecutorPaperExampleTest, HighQualityResultSatisfiesConstraints) {
  IntegrationExecutor executor;
  ExecutionReport report;
  auto result = executor.Execute(*scenario_, &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->SatisfiesConstraints());
}

TEST_F(ExecutorPaperExampleTest, ExecutedWorkMatchesDetectorPredictions) {
  IntegrationExecutor executor;
  ExecutionReport report;
  auto result = executor.Execute(*scenario_, &report);
  ASSERT_TRUE(result.ok());
  // The detector predicted: `multi_artist_albums` records need their
  // artists merged, `orphan_artists` detached artists need enclosing
  // tuples, whose titles then need inventing.
  EXPECT_EQ(report.values_merged, options_small_->multi_artist_albums);
  EXPECT_EQ(report.tuples_added, options_small_->orphan_artists);
  EXPECT_EQ(report.values_added, options_small_->orphan_artists);
  EXPECT_EQ(report.tuples_rejected, 0u);
  std::string text = report.ToString();
  EXPECT_NE(text.find("tuples integrated"), std::string::npos);
}

TEST_F(ExecutorPaperExampleTest, RowCountsAddUp) {
  IntegrationExecutor executor;
  ExecutionReport report;
  auto result = executor.Execute(*scenario_, &report);
  ASSERT_TRUE(result.ok());
  const Table* records = *result->table("records");
  const Table* tracks = *result->table("tracks");
  PaperExampleOptions& options = *options_small_;
  // records: pre-existing target + one per album + one per orphan artist.
  EXPECT_EQ(records->row_count(), options.target_records +
                                      options.album_count +
                                      options.orphan_artists);
  // tracks: pre-existing + one per song.
  EXPECT_EQ(tracks->row_count(),
            options.target_tracks + options.song_count);
}

TEST_F(ExecutorPaperExampleTest, SurrogateKeysAreUniqueAndRemapped) {
  IntegrationExecutor executor;
  auto result = executor.Execute(*scenario_, nullptr);
  ASSERT_TRUE(result.ok());
  const Table* records = *result->table("records");
  size_t id_column = *records->def().AttributeIndex("id");
  EXPECT_EQ(records->DistinctValues(id_column).size(), records->row_count());
  // Every track references an existing record (FK satisfied is already
  // asserted by SatisfiesConstraints; spot-check the remap produced
  // non-null values).
  const Table* tracks = *result->table("tracks");
  size_t record_column = *tracks->def().AttributeIndex("record");
  EXPECT_EQ(tracks->NullCount(record_column), 0u);
}

TEST_F(ExecutorPaperExampleTest, MergedArtistsAreCombinedText) {
  IntegrationExecutor executor;
  auto result = executor.Execute(*scenario_, nullptr);
  ASSERT_TRUE(result.ok());
  const Table* records = *result->table("records");
  size_t artist_column = *records->def().AttributeIndex("artist");
  size_t combined = 0;
  for (const Value& value : records->column(artist_column)) {
    if (!value.is_null() &&
        value.AsText().find("; ") != std::string::npos) {
      ++combined;
    }
  }
  EXPECT_EQ(combined, options_small_->multi_artist_albums);
}

TEST_F(ExecutorPaperExampleTest, LowEffortAlsoReachesValidity) {
  IntegrationExecutor::Options options;
  options.quality = ExpectedQuality::kLowEffort;
  IntegrationExecutor executor(options);
  ExecutionReport report;
  auto result = executor.Execute(*scenario_, &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->SatisfiesConstraints());
  // Low effort keeps one artist per album and drops the orphans.
  EXPECT_EQ(report.values_kept_any, options_small_->multi_artist_albums);
  EXPECT_EQ(report.values_dropped_detached,
            options_small_->orphan_artists);
  EXPECT_EQ(report.tuples_added, 0u);
  const Table* records = *result->table("records");
  // No detached-artist tuples: records = target + albums.
  EXPECT_EQ(records->row_count(), options_small_->target_records +
                                      options_small_->album_count);
}

TEST(ExecutorCaseStudyTest, BibliographicScenarioReachesValidity) {
  BiblioOptions options;
  options.publication_count = 150;
  auto scenario =
      MakeBiblioScenario(BiblioSchemaId::kS1, BiblioSchemaId::kS2, options);
  ASSERT_TRUE(scenario.ok());
  for (ExpectedQuality quality :
       {ExpectedQuality::kLowEffort, ExpectedQuality::kHighQuality}) {
    IntegrationExecutor::Options executor_options;
    executor_options.quality = quality;
    IntegrationExecutor executor(executor_options);
    ExecutionReport report;
    auto result = executor.Execute(*scenario, &report);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->SatisfiesConstraints());
    EXPECT_GT(report.tuples_integrated, 0u);
  }
}

TEST(ExecutorCaseStudyTest, UncastableYearsAreConvertedAtHighQuality) {
  BiblioOptions options;
  options.publication_count = 150;
  options.sloppy_year_rate = 0.5;
  auto scenario =
      MakeBiblioScenario(BiblioSchemaId::kS1, BiblioSchemaId::kS2, options);
  ASSERT_TRUE(scenario.ok());
  IntegrationExecutor executor;
  ExecutionReport report;
  auto result = executor.Execute(*scenario, &report);
  ASSERT_TRUE(result.ok());
  // Roughly half of the 150 years were "'98"-style and needed the
  // conversion script.
  EXPECT_GT(report.values_converted, 40u);
  // And they ended up as integers in the target.
  const Table* publications = *result->table("publications");
  size_t year_column = *publications->def().AttributeIndex("year");
  size_t castable = 0;
  for (const Value& year : publications->column(year_column)) {
    if (!year.is_null() && year.CanCastTo(DataType::kInteger)) ++castable;
  }
  EXPECT_EQ(castable,
            publications->row_count() - publications->NullCount(year_column));
}

TEST(ExecutorCaseStudyTest, IdentityScenarioIsCleanPassThrough) {
  MusicOptions options;
  options.disc_count = 60;
  auto scenario = MakeMusicScenario(MusicSchemaId::kDiscogs,
                                    MusicSchemaId::kDiscogs, options);
  ASSERT_TRUE(scenario.ok());
  IntegrationExecutor executor;
  ExecutionReport report;
  auto result = executor.Execute(*scenario, &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->SatisfiesConstraints());
  // No cleaning events of any kind.
  EXPECT_EQ(report.values_merged, 0u);
  EXPECT_EQ(report.tuples_added, 0u);
  EXPECT_EQ(report.tuples_rejected, 0u);
  EXPECT_EQ(report.values_converted, 0u);
}

TEST(ExecutorEdgeCaseTest, EmptyScenarioIntegratesNothing) {
  Schema target_schema("t");
  (void)target_schema.AddRelation(RelationDef("t", {{"a", DataType::kText}}));
  Schema source_schema("s");
  (void)source_schema.AddRelation(RelationDef("s", {{"a", DataType::kText}}));
  IntegrationScenario scenario(
      "empty", std::move(*Database::Create(std::move(target_schema))));
  scenario.AddSource(std::move(*Database::Create(std::move(source_schema))),
                     CorrespondenceSet());
  IntegrationExecutor executor;
  ExecutionReport report;
  auto result = executor.Execute(scenario, &report);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(report.tuples_integrated, 0u);
  EXPECT_EQ((*result->table("t"))->row_count(), 0u);
}

TEST(TableRemoveRowsTest, RemovesByIndex) {
  Table table(RelationDef("r", {{"x", DataType::kInteger}}));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(table.AppendRow({Value::Integer(i)}).ok());
  }
  table.RemoveRows({1, 3, 99, 3});
  ASSERT_EQ(table.row_count(), 3u);
  EXPECT_EQ(table.at(0, 0).AsInteger(), 0);
  EXPECT_EQ(table.at(1, 0).AsInteger(), 2);
  EXPECT_EQ(table.at(2, 0).AsInteger(), 4);
  table.RemoveRows({});
  EXPECT_EQ(table.row_count(), 3u);
}

}  // namespace
}  // namespace efes
