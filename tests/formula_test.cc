// Tests for the effort-formula language and the configuration parser.

#include "efes/core/formula.h"

#include <gtest/gtest.h>

#include "efes/common/file_io.h"
#include "efes/core/effort_config.h"

#include "test_paths.h"

namespace efes {
namespace {

double Eval(const std::string& text,
            std::map<std::string, double> parameters = {}) {
  auto formula = Formula::Parse(text);
  EXPECT_TRUE(formula.ok()) << formula.status().ToString();
  Task task;
  task.parameters = std::move(parameters);
  return formula->Evaluate(task);
}

TEST(FormulaTest, Numbers) {
  EXPECT_DOUBLE_EQ(Eval("42"), 42.0);
  EXPECT_DOUBLE_EQ(Eval("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(Eval("-7"), -7.0);
}

TEST(FormulaTest, ArithmeticPrecedence) {
  EXPECT_DOUBLE_EQ(Eval("2 + 3 * 4"), 14.0);
  EXPECT_DOUBLE_EQ(Eval("(2 + 3) * 4"), 20.0);
  EXPECT_DOUBLE_EQ(Eval("10 - 4 - 3"), 3.0);  // left-associative
  EXPECT_DOUBLE_EQ(Eval("12 / 4 / 3"), 1.0);
  EXPECT_DOUBLE_EQ(Eval("2 * -3"), -6.0);
}

TEST(FormulaTest, DivisionByZeroYieldsZero) {
  EXPECT_DOUBLE_EQ(Eval("5 / 0"), 0.0);
  EXPECT_DOUBLE_EQ(Eval("5 / values"), 0.0);  // missing parameter = 0
}

TEST(FormulaTest, ParametersResolve) {
  EXPECT_DOUBLE_EQ(Eval("2 * values", {{"values", 102}}), 204.0);
  EXPECT_DOUBLE_EQ(Eval("unknown_param"), 0.0);
}

TEST(FormulaTest, PaperHashNotationAccepted) {
  // "#dist-vals" from Table 9 normalizes to the dist_vals parameter.
  EXPECT_DOUBLE_EQ(Eval("0.25 * #dist-vals", {{"dist_vals", 400}}), 100.0);
}

TEST(FormulaTest, Table9WriteMappingFormula) {
  EXPECT_DOUBLE_EQ(
      Eval("3*fks + 3*pks + attributes + 3*tables",
           {{"fks", 0}, {"pks", 1}, {"attributes", 2}, {"tables", 3}}),
      14.0);
}

TEST(FormulaTest, Conditionals) {
  std::string convert = "if dist_vals < 120 then 30 else 0.25 * dist_vals";
  EXPECT_DOUBLE_EQ(Eval(convert, {{"dist_vals", 50}}), 30.0);
  EXPECT_DOUBLE_EQ(Eval(convert, {{"dist_vals", 400}}), 100.0);
}

TEST(FormulaTest, ComparisonOperators) {
  EXPECT_DOUBLE_EQ(Eval("if values <= 5 then 1 else 2", {{"values", 5}}),
                   1.0);
  EXPECT_DOUBLE_EQ(Eval("if values >= 5 then 1 else 2", {{"values", 4}}),
                   2.0);
  EXPECT_DOUBLE_EQ(Eval("if values == 5 then 1 else 2", {{"values", 5}}),
                   1.0);
  EXPECT_DOUBLE_EQ(Eval("if values > 5 then 1 else 2", {{"values", 6}}),
                   1.0);
}

TEST(FormulaTest, ChainedConditionals) {
  std::string tiers =
      "if values < 10 then 1 else if values < 100 then 2 else 3";
  EXPECT_DOUBLE_EQ(Eval(tiers, {{"values", 5}}), 1.0);
  EXPECT_DOUBLE_EQ(Eval(tiers, {{"values", 50}}), 2.0);
  EXPECT_DOUBLE_EQ(Eval(tiers, {{"values", 500}}), 3.0);
}

TEST(FormulaTest, ParseErrors) {
  EXPECT_FALSE(Formula::Parse("").ok());
  EXPECT_FALSE(Formula::Parse("2 +").ok());
  EXPECT_FALSE(Formula::Parse("(2 + 3").ok());
  EXPECT_FALSE(Formula::Parse("2 3").ok());
  EXPECT_FALSE(Formula::Parse("if x then 1").ok());     // missing else
  EXPECT_FALSE(Formula::Parse("if x 1 else 2").ok());   // missing cmp/then
  EXPECT_FALSE(Formula::Parse("1 ** 2").ok());
  EXPECT_EQ(Formula::Parse("2 +").status().code(), StatusCode::kParseError);
}

TEST(FormulaTest, KeepsSourceText) {
  auto formula = Formula::Parse("1 + 2");
  ASSERT_TRUE(formula.ok());
  EXPECT_EQ(formula->text(), "1 + 2");
}

// --- Config parser ----------------------------------------------------------

TEST(EffortConfigTest, ParsesSettings) {
  auto config = ParseEffortConfig(R"(
# comment line
[settings]
practitioner_skill = 0.8
criticality = 1.5          # trailing comment
mapping_tool_available = true
mapping_tool_minutes = 3
)");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_DOUBLE_EQ(config->settings.practitioner_skill, 0.8);
  EXPECT_DOUBLE_EQ(config->settings.criticality, 1.5);
  EXPECT_TRUE(config->settings.mapping_tool_available);
  EXPECT_DOUBLE_EQ(config->settings.mapping_tool_minutes, 3.0);
}

TEST(EffortConfigTest, OverridesEffortFunctions) {
  auto config = ParseEffortConfig(R"(
[efforts]
Reject tuples = 9
Convert values = if dist_vals < 10 then 1 else dist_vals
global_scale = 2
)");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  Task reject;
  reject.type = TaskType::kRejectTuples;
  // 9 * global scale 2.
  EXPECT_DOUBLE_EQ(config->model.EstimateMinutes(reject, config->settings),
                   18.0);
  Task convert;
  convert.type = TaskType::kConvertValues;
  convert.parameters["dist_vals"] = 50;
  EXPECT_DOUBLE_EQ(config->model.EstimateMinutes(convert, config->settings),
                   100.0);
  // Unlisted tasks keep Table 9 defaults (Add tuples = 5, scaled by 2).
  Task add_tuples;
  add_tuples.type = TaskType::kAddTuples;
  EXPECT_DOUBLE_EQ(
      config->model.EstimateMinutes(add_tuples, config->settings), 10.0);
}

TEST(EffortConfigTest, RejectsUnknownSection) {
  EXPECT_FALSE(ParseEffortConfig("[nope]\nx = 1\n").ok());
}

TEST(EffortConfigTest, RejectsUnknownSettingKey) {
  EXPECT_FALSE(ParseEffortConfig("[settings]\nwarp_speed = 9\n").ok());
}

TEST(EffortConfigTest, RejectsUnknownTaskName) {
  auto config = ParseEffortConfig("[efforts]\nFrobnicate values = 5\n");
  EXPECT_FALSE(config.ok());
  EXPECT_NE(config.status().message().find("Frobnicate"),
            std::string::npos);
}

TEST(EffortConfigTest, RejectsMalformedFormula) {
  EXPECT_FALSE(ParseEffortConfig("[efforts]\nReject tuples = 2 +\n").ok());
}

TEST(EffortConfigTest, RejectsKeyOutsideSection) {
  EXPECT_FALSE(ParseEffortConfig("orphan = 1\n").ok());
}

TEST(EffortConfigTest, TaskTypeFromNameRoundTrips) {
  for (const char* name : {"Write mapping", "Convert values",
                           "Add missing values", "Aggregate tuples"}) {
    auto type = TaskTypeFromName(name);
    ASSERT_TRUE(type.ok()) << name;
    EXPECT_EQ(TaskTypeToString(*type), name);
  }
  EXPECT_FALSE(TaskTypeFromName("No such task").ok());
}

TEST(EffortConfigTest, EmptyConfigIsPaperDefault) {
  auto config = ParseEffortConfig("");
  ASSERT_TRUE(config.ok());
  Task reject;
  reject.type = TaskType::kRejectTuples;
  EXPECT_DOUBLE_EQ(config->model.EstimateMinutes(reject, config->settings),
                   5.0);
}

/// Parses `text`, expecting it to fail with `code` on line 2.
void ExpectRejectedOnLine2(const std::string& text, StatusCode code) {
  auto config = ParseEffortConfig(text);
  ASSERT_FALSE(config.ok()) << text;
  EXPECT_EQ(config.status().code(), code) << config.status().ToString();
  EXPECT_EQ(config.status().message().rfind("line 2: ", 0), 0u)
      << config.status().ToString();
}

TEST(EffortConfigTest, RejectsNegativeGlobalScale) {
  ExpectRejectedOnLine2("[efforts]\nglobal_scale = -1\n",
                        StatusCode::kInvalidArgument);
}

TEST(EffortConfigTest, RejectsNanGlobalScale) {
  ExpectRejectedOnLine2("[efforts]\nglobal_scale = nan\n",
                        StatusCode::kParseError);
}

TEST(EffortConfigTest, RejectsNanDedupCost) {
  ExpectRejectedOnLine2("[dedup]\npair_review_minutes = nan\n",
                        StatusCode::kParseError);
}

TEST(EffortConfigTest, RejectsInfiniteSetting) {
  ExpectRejectedOnLine2("[settings]\npractitioner_skill = inf\n",
                        StatusCode::kParseError);
}

TEST(EffortConfigTest, RejectsNanBlockSize) {
  ExpectRejectedOnLine2("[dedup]\nmax_block_size = nan\n",
                        StatusCode::kParseError);
}

TEST(EffortConfigTest, RejectsSampleLimitBeyondSizeT) {
  ExpectRejectedOnLine2("[dedup]\nsample_limit = 1e300\n",
                        StatusCode::kInvalidArgument);
}

TEST(EffortConfigTest, RejectsFractionalBlockSize) {
  ExpectRejectedOnLine2("[dedup]\nmax_block_size = 2.5\n",
                        StatusCode::kInvalidArgument);
  // A whole number written as a double is still a whole number.
  auto config = ParseEffortConfig("[dedup]\nmax_block_size = 2e1\n");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->dedup.max_block_size, 20u);
}

TEST(EffortConfigTest, MalformedGlobalScaleCarriesLineNumber) {
  ExpectRejectedOnLine2("[efforts]\nglobal_scale = abc\n",
                        StatusCode::kParseError);
}

TEST(EffortConfigTest, LoadFromFile) {
  std::string path = TestScratchPath("efes_config_test") + ".conf";
  ASSERT_TRUE(
      WriteFileAtomic(path, "[settings]\ncriticality = 2\n").ok());
  auto config = LoadEffortConfig(path);
  ASSERT_TRUE(config.ok());
  EXPECT_DOUBLE_EQ(config->settings.criticality, 2.0);
  EXPECT_FALSE(LoadEffortConfig("/no/such/file.conf").ok());
}

}  // namespace
}  // namespace efes
