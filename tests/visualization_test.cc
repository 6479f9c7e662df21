// Tests for the problem heatmap (data visualization support) and
// progress monitoring.

#include "efes/experiment/visualization.h"

#include <gtest/gtest.h>
#include <memory>

#include "efes/experiment/default_pipeline.h"
#include "efes/experiment/progress.h"
#include "efes/scenario/paper_example.h"

namespace efes {
namespace {

class VisualizationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto scenario = MakePaperExample();
    ASSERT_TRUE(scenario.ok());
    scenario_ = std::make_unique<IntegrationScenario>(std::move(*scenario));
    EfesEngine engine = MakeDefaultEngine();
    auto result =
        engine.Run(*scenario_);
    ASSERT_TRUE(result.ok());
    result_ = std::make_unique<EstimationResult>(std::move(*result));
  }
  static void TearDownTestSuite() {
    result_.reset();
    scenario_.reset();
  }
  static std::unique_ptr<IntegrationScenario> scenario_;
  static std::unique_ptr<EstimationResult> result_;
};

std::unique_ptr<IntegrationScenario> VisualizationTest::scenario_;
std::unique_ptr<EstimationResult> VisualizationTest::result_;

TEST_F(VisualizationTest, CollectsProblemCountsPerElement) {
  ProblemCounts problems = CollectProblemCounts(*result_);
  // The 503 multi-artist + 102 detached-artist violations anchor at
  // records.artist.
  EXPECT_EQ(problems["records.artist"], 605u);
  // The value heterogeneity anchors at tracks.duration.
  EXPECT_GE(problems["tracks.duration"], 1u);
  // Mapping connections touch both target relations.
  EXPECT_EQ(problems["records"], 1u);
  EXPECT_EQ(problems["tracks"], 1u);
}

TEST_F(VisualizationTest, DotContainsSchemaAndHighlights) {
  ProblemCounts problems = CollectProblemCounts(*result_);
  std::string dot = RenderProblemHeatmapDot(*scenario_, problems);
  EXPECT_NE(dot.find("digraph efes_problems"), std::string::npos);
  // All target relations and attributes appear.
  for (const char* token : {"records", "tracks", "artist", "duration"}) {
    EXPECT_NE(dot.find(token), std::string::npos) << token;
  }
  // The hottest element carries its count and a heat color.
  EXPECT_NE(dot.find("artist (605)"), std::string::npos);
  EXPECT_NE(dot.find("0.000 0.6 1.0"), std::string::npos);  // pure red
  // FK edge rendered dashed.
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}

TEST_F(VisualizationTest, NoProblemsRendersWhiteSchema) {
  std::string dot = RenderProblemHeatmapDot(*scenario_, {});
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_EQ(dot.find("(605)"), std::string::npos);
}

// --- Progress ----------------------------------------------------------------

TEST(ProgressTest, EmptyEstimateIsDone) {
  ProgressReport report = TrackProgress(EffortEstimate{}, {});
  EXPECT_DOUBLE_EQ(report.Fraction(), 1.0);
  EXPECT_DOUBLE_EQ(report.remaining_minutes, 0.0);
}

TEST(ProgressTest, TracksCompletionByIndex) {
  EffortEstimate estimate;
  auto add = [&](TaskCategory category, double minutes) {
    Task task;
    task.category = category;
    estimate.tasks.push_back(TaskEstimate{std::move(task), minutes});
  };
  add(TaskCategory::kMapping, 25);
  add(TaskCategory::kCleaningStructure, 100);
  add(TaskCategory::kCleaningValues, 75);

  ProgressReport report = TrackProgress(estimate, {0});
  EXPECT_EQ(report.completed_tasks, 1u);
  EXPECT_DOUBLE_EQ(report.completed_minutes, 25.0);
  EXPECT_DOUBLE_EQ(report.remaining_minutes, 175.0);
  EXPECT_DOUBLE_EQ(report.remaining_mapping, 0.0);
  EXPECT_DOUBLE_EQ(report.remaining_structure, 100.0);
  EXPECT_DOUBLE_EQ(report.remaining_values, 75.0);
  EXPECT_NEAR(report.Fraction(), 0.125, 1e-12);
  EXPECT_NE(report.ToString().find("1/3 tasks done"), std::string::npos);
}

TEST(ProgressTest, OutOfRangeIndicesIgnored) {
  EffortEstimate estimate;
  Task task;
  task.category = TaskCategory::kMapping;
  estimate.tasks.push_back(TaskEstimate{std::move(task), 10});
  ProgressReport report = TrackProgress(estimate, {0, 5, 99});
  EXPECT_EQ(report.completed_tasks, 1u);
  EXPECT_DOUBLE_EQ(report.remaining_minutes, 0.0);
  EXPECT_DOUBLE_EQ(report.Fraction(), 1.0);
}

}  // namespace
}  // namespace efes
