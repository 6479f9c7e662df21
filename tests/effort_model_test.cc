// Tests for the effort calculation functions: the default model must
// reproduce Table 9 of the paper exactly.

#include "efes/core/effort_model.h"

#include <gtest/gtest.h>

namespace efes {
namespace {

Task MakeTask(TaskType type, std::map<std::string, double> parameters) {
  Task task;
  task.type = type;
  task.parameters = std::move(parameters);
  return task;
}

class Table9Test : public ::testing::Test {
 protected:
  EffortModel model_ = EffortModel::PaperDefault();
  ExecutionSettings settings_;

  double Minutes(TaskType type, std::map<std::string, double> parameters) {
    return model_.EstimateMinutes(MakeTask(type, std::move(parameters)),
                                  settings_);
  }
};

TEST_F(Table9Test, AggregateValues) {
  EXPECT_DOUBLE_EQ(Minutes(TaskType::kAggregateValues, {{"repetitions", 7}}),
                   21.0);
}

TEST_F(Table9Test, ConvertValuesBranches) {
  // (if #dist-vals < 120) 30, (else) 0.25 * #dist-vals.
  EXPECT_DOUBLE_EQ(Minutes(TaskType::kConvertValues, {{"dist_vals", 50}}),
                   30.0);
  EXPECT_DOUBLE_EQ(Minutes(TaskType::kConvertValues, {{"dist_vals", 119}}),
                   30.0);
  EXPECT_DOUBLE_EQ(Minutes(TaskType::kConvertValues, {{"dist_vals", 120}}),
                   30.0);
  EXPECT_DOUBLE_EQ(Minutes(TaskType::kConvertValues, {{"dist_vals", 200}}),
                   50.0);
}

TEST_F(Table9Test, GeneralizeAndRefine) {
  EXPECT_DOUBLE_EQ(
      Minutes(TaskType::kGeneralizeValues, {{"dist_vals", 100}}), 50.0);
  EXPECT_DOUBLE_EQ(Minutes(TaskType::kRefineValues, {{"values", 100}}),
                   50.0);
}

TEST_F(Table9Test, ConstantTasks) {
  EXPECT_DOUBLE_EQ(Minutes(TaskType::kDropValues, {}), 10.0);
  EXPECT_DOUBLE_EQ(Minutes(TaskType::kCreateEnclosingTuples, {}), 10.0);
  EXPECT_DOUBLE_EQ(Minutes(TaskType::kDropDetachedValues, {}), 0.0);
  EXPECT_DOUBLE_EQ(Minutes(TaskType::kRejectTuples, {}), 5.0);
  EXPECT_DOUBLE_EQ(Minutes(TaskType::kKeepAnyValue, {}), 5.0);
  EXPECT_DOUBLE_EQ(Minutes(TaskType::kAddTuples, {}), 5.0);
  EXPECT_DOUBLE_EQ(Minutes(TaskType::kAggregateTuples, {}), 5.0);
  EXPECT_DOUBLE_EQ(Minutes(TaskType::kDeleteDanglingValues, {}), 5.0);
  EXPECT_DOUBLE_EQ(Minutes(TaskType::kAddReferencedValues, {}), 5.0);
  EXPECT_DOUBLE_EQ(Minutes(TaskType::kDeleteDanglingTuples, {}), 5.0);
  EXPECT_DOUBLE_EQ(Minutes(TaskType::kUnlinkAllButOneTuple, {}), 5.0);
  EXPECT_DOUBLE_EQ(Minutes(TaskType::kSetValuesToNull, {}), 5.0);
  EXPECT_DOUBLE_EQ(Minutes(TaskType::kMergeValues, {{"repetitions", 503}}),
                   15.0);
}

TEST_F(Table9Test, AddValues) {
  // "it takes a practitioner two minutes to investigate and provide a
  // single missing value" (Section 6.1).
  EXPECT_DOUBLE_EQ(Minutes(TaskType::kAddValues, {{"values", 102}}), 204.0);
  EXPECT_DOUBLE_EQ(Minutes(TaskType::kAddMissingValues, {{"values", 102}}),
                   204.0);
}

TEST_F(Table9Test, WriteMappingFormula) {
  // 3*FKs + 3*PKs + atts + 3*tables; Example 3.8: 3 tables, 2 attrs, 1 PK
  // -> 14 minutes.
  EXPECT_DOUBLE_EQ(
      Minutes(TaskType::kWriteMapping,
              {{"tables", 3}, {"attributes", 2}, {"pks", 1}, {"fks", 0}}),
      14.0);
  EXPECT_DOUBLE_EQ(
      Minutes(TaskType::kWriteMapping,
              {{"tables", 2}, {"attributes", 2}, {"pks", 0}, {"fks", 1}}),
      11.0);
}

TEST_F(Table9Test, MappingToolShortCircuitsToConstant) {
  // Example 3.8: "if a tool can generate this mapping automatically [...]
  // effort = 2 mins".
  settings_.mapping_tool_available = true;
  EXPECT_DOUBLE_EQ(
      Minutes(TaskType::kWriteMapping,
              {{"tables", 3}, {"attributes", 2}, {"pks", 1}}),
      2.0);
}

TEST_F(Table9Test, SettingsMultipliersScaleEstimates) {
  settings_.practitioner_skill = 2.0;
  settings_.criticality = 1.5;
  EXPECT_DOUBLE_EQ(Minutes(TaskType::kRejectTuples, {}), 15.0);
}

TEST_F(Table9Test, GlobalScaleAppliesToEverything) {
  model_.set_global_scale(0.5);
  EXPECT_DOUBLE_EQ(Minutes(TaskType::kRejectTuples, {}), 2.5);
  EXPECT_DOUBLE_EQ(model_.global_scale(), 0.5);
}

TEST(EffortModelTest, EmptyModelEstimatesZero) {
  EffortModel model;
  ExecutionSettings settings;
  Task task = MakeTask(TaskType::kRejectTuples, {});
  EXPECT_DOUBLE_EQ(model.EstimateMinutes(task, settings), 0.0);
  EXPECT_FALSE(model.HasFunction(TaskType::kRejectTuples));
}

TEST(EffortModelTest, SetFunctionOverrides) {
  EffortModel model = EffortModel::PaperDefault();
  model.SetFunction(
      TaskType::kRejectTuples,
      [](const Task&, const ExecutionSettings&) { return 99.0; }, "99", {});
  ExecutionSettings settings;
  EXPECT_DOUBLE_EQ(
      model.EstimateMinutes(MakeTask(TaskType::kRejectTuples, {}), settings),
      99.0);
  EffortExplanation explanation =
      model.Explain(MakeTask(TaskType::kRejectTuples, {}), settings);
  EXPECT_EQ(explanation.function, "99");
  EXPECT_TRUE(explanation.parameters.empty());
}

TEST(EffortModelTest, DescribeDefaultFunctions) {
  EXPECT_EQ(EffortModel::DescribeDefaultFunction(TaskType::kWriteMapping),
            "3 * #FKs + 3 * #PKs + #atts + 3 * #tables");
  EXPECT_EQ(EffortModel::DescribeDefaultFunction(TaskType::kAggregateValues),
            "3 * #repetitions");
  EXPECT_EQ(
      EffortModel::DescribeDefaultFunction(TaskType::kDropDetachedValues),
      "0");
}

}  // namespace
}  // namespace efes
