// Tests for the value-heterogeneity module: the Algorithm 1 decision
// rules and the Table 7 task planning.

#include "efes/values/value_module.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "efes/cache/profile_cache.h"
#include "efes/common/metrics.h"
#include "efes/experiment/default_pipeline.h"
#include "efes/profiling/profiler.h"
#include "efes/provenance/provenance.h"
#include "efes/scenario/fuzzer.h"
#include "efes/scenario/paper_example.h"
#include "efes/telemetry/trace.h"

namespace efes {
namespace {

std::vector<Value> Texts(const std::vector<std::string>& texts) {
  std::vector<Value> values;
  for (const std::string& text : texts) values.push_back(Value::Text(text));
  return values;
}

AttributeStatistics StatsOf(const std::vector<Value>& column,
                            DataType target) {
  auto profiled = ProfileColumn(column, target);
  EXPECT_TRUE(profiled.ok()) << profiled.status().ToString();
  return profiled.ok() ? *std::move(profiled) : AttributeStatistics{};
}

bool Has(const std::vector<ValueHeterogeneityType>& detected,
         ValueHeterogeneityType type) {
  for (ValueHeterogeneityType t : detected) {
    if (t == type) return true;
  }
  return false;
}

TEST(Algorithm1Test, Rule1TooFewSourceElements) {
  std::vector<Value> sparse;
  std::vector<Value> dense;
  for (int i = 0; i < 100; ++i) {
    sparse.push_back(i < 40 ? Value::Text("v" + std::to_string(i))
                            : Value::Null());
    dense.push_back(Value::Text("w" + std::to_string(i)));
  }
  ValueFitOptions options;
  auto detected = DetectValueHeterogeneities(
      StatsOf(sparse, DataType::kText), StatsOf(dense, DataType::kText),
      /*has_target_data=*/true, options);
  EXPECT_TRUE(
      Has(detected, ValueHeterogeneityType::kTooFewSourceElements));
}

TEST(Algorithm1Test, Rule1UsesNullsNotUncastables) {
  // Fully present but uncastable values are a representation problem,
  // never "too few elements".
  std::vector<Value> source;
  std::vector<Value> target;
  for (int i = 0; i < 100; ++i) {
    source.push_back(Value::Text("12--34"));
    target.push_back(Value::Integer(i));
  }
  ValueFitOptions options;
  auto detected = DetectValueHeterogeneities(
      StatsOf(source, DataType::kInteger),
      StatsOf(target, DataType::kInteger),
      /*has_target_data=*/true, options);
  EXPECT_FALSE(
      Has(detected, ValueHeterogeneityType::kTooFewSourceElements));
  EXPECT_TRUE(Has(
      detected, ValueHeterogeneityType::kDifferentRepresentationsCritical));
}

TEST(Algorithm1Test, Rule2CriticalRepresentations) {
  std::vector<Value> source = Texts({"'98", "1998", "'99", "2001"});
  std::vector<Value> target = {Value::Integer(1998), Value::Integer(2001)};
  ValueFitOptions options;
  auto detected = DetectValueHeterogeneities(
      StatsOf(source, DataType::kInteger),
      StatsOf(target, DataType::kInteger),
      /*has_target_data=*/true, options);
  EXPECT_TRUE(Has(
      detected, ValueHeterogeneityType::kDifferentRepresentationsCritical));
  // Once critical fired, no duplicate uncritical finding.
  EXPECT_FALSE(
      Has(detected, ValueHeterogeneityType::kDifferentRepresentations));
}

TEST(Algorithm1Test, GranularityRules) {
  // Source: small discrete domain; target: free text -> too coarse.
  std::vector<Value> restricted;
  std::vector<Value> freeform;
  for (int i = 0; i < 120; ++i) {
    restricted.push_back(Value::Text(i % 3 == 0 ? "Rock"
                                     : i % 3 == 1 ? "Pop"
                                                  : "Jazz"));
    freeform.push_back(Value::Text("detailed genre nr " +
                                   std::to_string(i) + " with notes"));
  }
  ValueFitOptions options;
  auto coarse = DetectValueHeterogeneities(
      StatsOf(restricted, DataType::kText), StatsOf(freeform, DataType::kText),
      /*has_target_data=*/true, options);
  EXPECT_TRUE(Has(
      coarse, ValueHeterogeneityType::kTooCoarseGrainedSourceValues));

  auto fine = DetectValueHeterogeneities(
      StatsOf(freeform, DataType::kText), StatsOf(restricted, DataType::kText),
      /*has_target_data=*/true, options);
  EXPECT_TRUE(
      Has(fine, ValueHeterogeneityType::kTooFineGrainedSourceValues));
}

TEST(Algorithm1Test, DomainSpecificDifferencesBelowThreshold) {
  // ms integers (as text) vs m:ss strings: both unrestricted, fit << 0.9.
  std::vector<Value> source;
  std::vector<Value> target;
  for (int i = 0; i < 200; ++i) {
    source.push_back(Value::Integer(100000 + i * 997));
    target.push_back(Value::Text(std::to_string(2 + i % 6) + ":" +
                                 std::to_string(10 + i % 49)));
  }
  ValueFitOptions options;
  double fit = 1.0;
  auto detected = DetectValueHeterogeneities(
      StatsOf(source, DataType::kText), StatsOf(target, DataType::kText),
      /*has_target_data=*/true, options, &fit);
  EXPECT_TRUE(
      Has(detected, ValueHeterogeneityType::kDifferentRepresentations));
  EXPECT_LT(fit, options.fit_threshold);
}

TEST(Algorithm1Test, MatchingPairYieldsNothing) {
  std::vector<Value> a;
  std::vector<Value> b;
  for (int i = 0; i < 200; ++i) {
    a.push_back(Value::Text("word" + std::to_string(i * 7 % 300)));
    b.push_back(Value::Text("word" + std::to_string(i * 11 % 300)));
  }
  ValueFitOptions options;
  auto detected = DetectValueHeterogeneities(
      StatsOf(a, DataType::kText), StatsOf(b, DataType::kText),
      /*has_target_data=*/true, options);
  EXPECT_TRUE(detected.empty());
}

TEST(Algorithm1Test, NoTargetDataSkipsComparativeRules) {
  std::vector<Value> source = Texts({"a", "b", "c"});
  ValueFitOptions options;
  auto detected = DetectValueHeterogeneities(
      StatsOf(source, DataType::kText), StatsOf({}, DataType::kText),
      /*has_target_data=*/false, options);
  EXPECT_TRUE(detected.empty());
}

TEST(IsDomainRestrictedTest, ByDistinctCountAndConstancy) {
  ValueFitOptions options;
  std::vector<Value> few = Texts({"a", "b", "a", "b", "a"});
  EXPECT_TRUE(IsDomainRestricted(StatsOf(few, DataType::kText), options));
  std::vector<Value> many;
  for (int i = 0; i < 200; ++i) {
    many.push_back(Value::Text("v" + std::to_string(i)));
  }
  EXPECT_FALSE(IsDomainRestricted(StatsOf(many, DataType::kText), options));
  EXPECT_FALSE(IsDomainRestricted(StatsOf({}, DataType::kText), options));
}

// --- Module-level tests on the paper example -------------------------------

class PaperExampleValueTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto scenario = MakePaperExample();
    ASSERT_TRUE(scenario.ok());
    scenario_ = std::make_unique<IntegrationScenario>(std::move(*scenario));
    auto report = module_.AssessComplexity(*scenario_, RunContext{});
    ASSERT_TRUE(report.ok());
    report_ = std::move(*report);
  }

  ValueModule module_;
  std::unique_ptr<IntegrationScenario> scenario_;
  std::unique_ptr<ComplexityReport> report_;
};

TEST_F(PaperExampleValueTest, Table6LengthDurationHeterogeneity) {
  const auto& report = static_cast<const ValueComplexityReport&>(*report_);
  ASSERT_EQ(report.heterogeneities().size(), 1u);
  const ValueHeterogeneity& h = report.heterogeneities()[0];
  EXPECT_EQ(h.type, ValueHeterogeneityType::kDifferentRepresentations);
  EXPECT_EQ(h.source_attribute, "songs.length");
  EXPECT_EQ(h.target_attribute, "tracks.duration");
  EXPECT_GT(h.source_values, 0u);
  EXPECT_GT(h.source_distinct_values, 0u);
  EXPECT_LT(h.overall_fit, 0.9);
  // ms integers all share one text pattern -> systematic conversion.
  EXPECT_TRUE(h.systematic);
  EXPECT_EQ(h.source_pattern_count, 1u);
}

TEST_F(PaperExampleValueTest, FkRemapAttributesAreSkipped) {
  const auto& report = static_cast<const ValueComplexityReport&>(*report_);
  for (const ValueHeterogeneity& h : report.heterogeneities()) {
    EXPECT_NE(h.target_attribute, "tracks.record");
  }
}

TEST_F(PaperExampleValueTest, Table8HighQualityConvertTask) {
  auto tasks =
      module_.PlanTasks(*report_, ExpectedQuality::kHighQuality, {});
  ASSERT_TRUE(tasks.ok());
  ASSERT_EQ(tasks->size(), 1u);
  EXPECT_EQ((*tasks)[0].type, TaskType::kConvertValues);
  EXPECT_EQ((*tasks)[0].category, TaskCategory::kCleaningValues);
  // Systematic: the Table 9 function sees the format count, not the
  // distinct-value count -> 30 minutes branch.
  EXPECT_DOUBLE_EQ((*tasks)[0].Param(task_params::kDistinctValues), 1.0);
}

TEST_F(PaperExampleValueTest, LowEffortIgnoresUncriticalHeterogeneity) {
  auto tasks = module_.PlanTasks(*report_, ExpectedQuality::kLowEffort, {});
  ASSERT_TRUE(tasks.ok());
  // Table 7: uncritical representations need no low-effort action.
  EXPECT_TRUE(tasks->empty());
}

TEST_F(PaperExampleValueTest, ReportRendersTable6) {
  std::string text = report_->ToText();
  EXPECT_NE(text.find("Value heterogeneity"), std::string::npos);
  EXPECT_NE(text.find("songs.length -> tracks.duration"),
            std::string::npos);
  EXPECT_NE(text.find("distinct source values"), std::string::npos);
}

// --- The profiling batch ----------------------------------------------------

/// Three sources correspond into the same populated target columns, the
/// shape of the benchmark's estimate workloads.
IntegrationScenario MakeThreeSourceScenario() {
  FuzzOptions options;
  options.min_sources = options.max_sources = 3;
  options.min_entities = options.max_entities = 300;
  options.target_data_rate = 1.0;
  auto fuzzed = FuzzScenario(1, options);
  EXPECT_TRUE(fuzzed.ok()) << fuzzed.status();
  return std::move(fuzzed->scenario);
}

uint64_t ColumnsProfiled() {
  return MetricsRegistry::Global().Snapshot().CounterValue(
      "profiling.statistics.columns");
}

TEST(ValueModuleTest, ProfilesEachDistinctColumnOnce) {
  const IntegrationScenario scenario = MakeThreeSourceScenario();
  ASSERT_EQ(scenario.sources.size(), 3u);

  // What the assessment reads: the source and the target column of every
  // correspondence outside the target's foreign keys, each against the
  // target attribute's type.
  std::set<std::string> target_fks;
  for (const Constraint& c : scenario.target.schema().constraints()) {
    if (c.kind != ConstraintKind::kForeignKey) continue;
    for (const std::string& attribute : c.attributes) {
      target_fks.insert(c.relation + "." + attribute);
    }
  }
  std::set<std::pair<const std::vector<Value>*, DataType>> distinct;
  size_t requests = 0;
  for (const SourceBinding& source : scenario.sources) {
    for (const Correspondence& corr : source.correspondences.all()) {
      if (!corr.is_attribute_level() ||
          target_fks.count(corr.target_relation + "." +
                           corr.target_attribute) > 0) {
        continue;
      }
      auto source_table = source.database.table(corr.source_relation);
      auto target_table = scenario.target.table(corr.target_relation);
      ASSERT_TRUE(source_table.ok() && target_table.ok());
      auto source_column = (*source_table)->ColumnByName(corr.source_attribute);
      auto target_column = (*target_table)->ColumnByName(corr.target_attribute);
      auto attribute = (*target_table)->def().Attribute(corr.target_attribute);
      ASSERT_TRUE(source_column.ok() && target_column.ok() && attribute.ok());
      distinct.emplace(*source_column, attribute->type);
      distinct.emplace(*target_column, attribute->type);
      requests += 2;
    }
  }
  // Every target column is read once per source.
  ASSERT_LT(distinct.size(), requests);

  const uint64_t before = ColumnsProfiled();
  ValueModule module;
  auto report = module.AssessComplexity(scenario, RunContext{});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(ColumnsProfiled() - before, distinct.size());
}

TEST(ValueModuleTest, ProfilingColumnSpansCountComputedColumns) {
  const IntegrationScenario scenario = MakeThreeSourceScenario();
  EfesEngine engine = MakeDefaultEngine();
  TraceRecorder& recorder = TraceRecorder::Global();
  auto assess = [&](ProfileCache* cache, uint64_t* columns, size_t* spans) {
    RunOptions options;
    options.cache = cache;
    recorder.Clear();
    recorder.set_enabled(true);
    const uint64_t before = ColumnsProfiled();
    auto reports = engine.AssessComplexity(scenario, options);
    recorder.set_enabled(false);
    ASSERT_TRUE(reports.ok()) << reports.status();
    *columns = ColumnsProfiled() - before;
    *spans = 0;
    for (const TraceEvent& event : recorder.events()) {
      if (event.name == "profiling.column") ++*spans;
    }
    recorder.Clear();
  };

  uint64_t columns = 0;
  size_t spans = 0;
  assess(nullptr, &columns, &spans);
  EXPECT_GT(columns, 0u);
  EXPECT_EQ(spans, columns) << "uncached";

  ProfileCache cache;
  assess(&cache, &columns, &spans);
  EXPECT_EQ(spans, columns) << "cold cache";
  // Every profile is a cache hit now: nothing is computed, no span opens.
  assess(&cache, &columns, &spans);
  EXPECT_EQ(columns, 0u);
  EXPECT_EQ(spans, 0u) << "warm cache";
}

TEST(ValueModuleTest, FailedBatchFollowsTheThresholdNodes) {
  // The thresholds are recorded before the profiling batch, so an
  // assessment that fails in the batch (an exact budget overflow) leaves
  // exactly those nodes behind, and the ids of every later module's nodes
  // do not depend on where it failed.
  const IntegrationScenario scenario = MakeThreeSourceScenario();
  ProfileOptions exact;
  exact.mode = ApproximationMode::kExact;
  exact.max_memory_bytes = 300;
  ProvenanceRecorder recorder;
  auto report = ValueModule().AssessComplexity(
      scenario, RunContext{.profile = exact, .recorder = &recorder});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted);
  const ProvenanceSnapshot snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.nodes.size(), 3u);
  for (const ProvenanceNode& node : snapshot.nodes) {
    EXPECT_EQ(node.kind, ProvenanceKind::kThreshold) << node.label;
  }
}

TEST(ValueHeterogeneityNamesTest, MatchAlgorithm1) {
  EXPECT_EQ(ValueHeterogeneityTypeToString(
                ValueHeterogeneityType::kTooFewSourceElements),
            "Too few source elements");
  EXPECT_EQ(ValueHeterogeneityTypeToString(
                ValueHeterogeneityType::kDifferentRepresentationsCritical),
            "Different value representations (critical)");
  EXPECT_EQ(ValueHeterogeneityTypeToString(
                ValueHeterogeneityType::kTooCoarseGrainedSourceValues),
            "Too coarse-grained source values");
}

TEST(ValueModulePlannerTest, Table7TaskMatrix) {
  auto plan_one = [](ValueHeterogeneityType type, ExpectedQuality quality,
                     bool systematic = true) {
    ValueHeterogeneity h;
    h.type = type;
    h.source_values = 500;
    h.source_distinct_values = 400;
    h.source_pattern_count = systematic ? 2 : 20;
    h.systematic = systematic;
    h.affected_values = 100;
    ValueComplexityReport report({h});
    ValueModule module;
    auto tasks = module.PlanTasks(report, quality, {});
    EXPECT_TRUE(tasks.ok());
    return *tasks;
  };

  using T = ValueHeterogeneityType;
  using Q = ExpectedQuality;

  // Too few elements: high -> Add values, low -> nothing.
  auto tasks = plan_one(T::kTooFewSourceElements, Q::kHighQuality);
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].type, TaskType::kAddValues);
  EXPECT_DOUBLE_EQ(tasks[0].Param(task_params::kValues), 100.0);
  EXPECT_TRUE(plan_one(T::kTooFewSourceElements, Q::kLowEffort).empty());

  // Critical representations: low -> Drop values, high -> Convert values.
  tasks = plan_one(T::kDifferentRepresentationsCritical, Q::kLowEffort);
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].type, TaskType::kDropValues);
  tasks = plan_one(T::kDifferentRepresentationsCritical, Q::kHighQuality);
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].type, TaskType::kConvertValues);

  // Irregular conversion keeps the per-distinct parameter.
  tasks = plan_one(T::kDifferentRepresentations, Q::kHighQuality,
                   /*systematic=*/false);
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_DOUBLE_EQ(tasks[0].Param(task_params::kDistinctValues), 400.0);

  // Granularity rules.
  tasks = plan_one(T::kTooFineGrainedSourceValues, Q::kHighQuality);
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].type, TaskType::kGeneralizeValues);
  tasks = plan_one(T::kTooCoarseGrainedSourceValues, Q::kHighQuality);
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].type, TaskType::kRefineValues);
  EXPECT_TRUE(
      plan_one(T::kTooFineGrainedSourceValues, Q::kLowEffort).empty());
}

}  // namespace
}  // namespace efes
