// Tests for the mapping estimation module (Table 2 / Example 3.8).

#include "efes/mapping/mapping_module.h"

#include <gtest/gtest.h>

#include "efes/core/effort_model.h"
#include "efes/scenario/paper_example.h"

namespace efes {
namespace {

const MappingConnection* FindConnection(
    const MappingComplexityReport& report, const std::string& target_table) {
  for (const MappingConnection& connection : report.connections()) {
    if (connection.target_table == target_table) return &connection;
  }
  return nullptr;
}

class MappingModuleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto scenario = MakePaperExample();
    ASSERT_TRUE(scenario.ok());
    scenario_ = std::make_unique<IntegrationScenario>(std::move(*scenario));
    auto report = module_.AssessComplexity(*scenario_, RunContext{});
    ASSERT_TRUE(report.ok());
    report_ = std::move(*report);
  }

  MappingModule module_;
  std::unique_ptr<IntegrationScenario> scenario_;
  std::unique_ptr<ComplexityReport> report_;
};

TEST_F(MappingModuleTest, Table2RecordsConnection) {
  const auto& report =
      static_cast<const MappingComplexityReport&>(*report_);
  const MappingConnection* records = FindConnection(report, "records");
  ASSERT_NE(records, nullptr);
  // "the three source tables albums, artist_lists, and artist_credits
  // have to be combined, two attributes must be copied, and unique id
  // values for the integrated tuples must be generated" (Example 3.4).
  EXPECT_EQ(records->source_tables.size(), 3u);
  EXPECT_EQ(records->attribute_count, 2u);
  EXPECT_TRUE(records->needs_key_generation);
  EXPECT_EQ(records->foreign_key_count, 0u);
}

TEST_F(MappingModuleTest, Table2TracksConnection) {
  const auto& report =
      static_cast<const MappingComplexityReport&>(*report_);
  const MappingConnection* tracks = FindConnection(report, "tracks");
  ASSERT_NE(tracks, nullptr);
  // songs plus the albums anchor needed to resolve the record FK.
  EXPECT_EQ(tracks->source_tables.size(), 2u);
  // record is an FK remap, not an attribute copy: title + duration remain.
  EXPECT_EQ(tracks->attribute_count, 2u);
  EXPECT_FALSE(tracks->needs_key_generation);
  EXPECT_EQ(tracks->foreign_key_count, 1u);
}

TEST_F(MappingModuleTest, Example38TotalIs25Minutes) {
  ExecutionSettings settings;
  auto tasks =
      module_.PlanTasks(*report_, ExpectedQuality::kHighQuality, settings);
  ASSERT_TRUE(tasks.ok());
  ASSERT_EQ(tasks->size(), 2u);
  EffortModel model = EffortModel::PaperDefault();
  double total = 0.0;
  for (const Task& task : *tasks) {
    EXPECT_EQ(task.type, TaskType::kWriteMapping);
    EXPECT_EQ(task.category, TaskCategory::kMapping);
    total += model.EstimateMinutes(task, settings);
  }
  EXPECT_DOUBLE_EQ(total, 25.0);
}

TEST_F(MappingModuleTest, MappingToolReducesTo2MinutesPerConnection) {
  ExecutionSettings settings;
  settings.mapping_tool_available = true;
  auto tasks =
      module_.PlanTasks(*report_, ExpectedQuality::kHighQuality, settings);
  ASSERT_TRUE(tasks.ok());
  EffortModel model = EffortModel::PaperDefault();
  double total = 0.0;
  for (const Task& task : *tasks) {
    total += model.EstimateMinutes(task, settings);
  }
  EXPECT_DOUBLE_EQ(total, 4.0);  // Example 3.8: "four minutes"
}

TEST_F(MappingModuleTest, ReportRendersTable2Columns) {
  std::string text = report_->ToText();
  EXPECT_NE(text.find("Target table"), std::string::npos);
  EXPECT_NE(text.find("Source tables"), std::string::npos);
  EXPECT_NE(text.find("Primary key"), std::string::npos);
  EXPECT_NE(text.find("records"), std::string::npos);
  EXPECT_EQ(report_->ProblemCount(), 2u);
  EXPECT_EQ(report_->module_name(), "mapping");
}

TEST_F(MappingModuleTest, RejectsForeignReport) {
  class OtherReport : public ComplexityReport {
   public:
    std::string module_name() const override { return "other"; }
    std::string ToText() const override { return ""; }
    size_t ProblemCount() const override { return 0; }
  };
  OtherReport other;
  auto tasks =
      module_.PlanTasks(other, ExpectedQuality::kHighQuality, {});
  EXPECT_FALSE(tasks.ok());
}

TEST(MappingModuleStandaloneTest, NoCorrespondencesNoConnections) {
  Schema target_schema("t");
  (void)target_schema.AddRelation(RelationDef("t", {{"a", DataType::kText}}));
  Schema source_schema("s");
  (void)source_schema.AddRelation(RelationDef("s", {{"a", DataType::kText}}));
  IntegrationScenario scenario("empty",
                               std::move(*Database::Create(
                                   std::move(target_schema))));
  scenario.AddSource(std::move(*Database::Create(std::move(source_schema))),
                     CorrespondenceSet());
  MappingModule module;
  auto report = module.AssessComplexity(scenario, RunContext{});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ((*report)->ProblemCount(), 0u);
}

}  // namespace
}  // namespace efes
