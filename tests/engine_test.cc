// Tests for the EFES engine: module orchestration, aggregation, and the
// extensibility contract (a custom module plugs in unchanged).

#include "efes/core/engine.h"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "efes/common/metrics.h"
#include "efes/common/parallel.h"
#include "efes/dedup/dedup_module.h"
#include "efes/experiment/default_pipeline.h"
#include "efes/experiment/json_export.h"
#include "efes/provenance/provenance.h"
#include "efes/scenario/fuzzer.h"
#include "efes/scenario/paper_example.h"
#include "efes/values/value_module.h"

namespace efes {
namespace {

/// The low-effort run most tests here price.
RunOptions LowEffort() {
  RunOptions options;
  options.quality = ExpectedQuality::kLowEffort;
  return options;
}

IntegrationScenario MakeTrivialScenario() {
  Schema target_schema("target");
  (void)target_schema.AddRelation(
      RelationDef("t", {{"a", DataType::kText}}));
  Schema source_schema("source");
  (void)source_schema.AddRelation(
      RelationDef("s", {{"a", DataType::kText}}));
  auto target = Database::Create(std::move(target_schema));
  auto source = Database::Create(std::move(source_schema));
  CorrespondenceSet correspondences;
  correspondences.AddRelation("s", "t");
  IntegrationScenario scenario("trivial", std::move(*target));
  scenario.AddSource(std::move(*source), std::move(correspondences));
  return scenario;
}

/// A stub module reporting one fixed problem and planning one task per
/// report, used to test the engine contract.
class FakeReport : public ComplexityReport {
 public:
  explicit FakeReport(size_t problems) : problems_(problems) {}
  std::string module_name() const override { return "fake"; }
  std::string ToText() const override { return "fake report\n"; }
  size_t ProblemCount() const override { return problems_; }

 private:
  size_t problems_;
};

class FakeModule : public EstimationModule {
 public:
  explicit FakeModule(size_t problems = 1) : problems_(problems) {}

  std::string name() const override { return "fake"; }

  Result<std::unique_ptr<ComplexityReport>> AssessComplexity(
      const IntegrationScenario&, const RunContext&) const override {
    return std::unique_ptr<ComplexityReport>(
        std::make_unique<FakeReport>(problems_));
  }

  Result<std::vector<Task>> PlanTasks(
      const ComplexityReport& report, ExpectedQuality quality,
      const ExecutionSettings&) const override {
    std::vector<Task> tasks;
    for (size_t i = 0; i < report.ProblemCount(); ++i) {
      Task task;
      task.type = TaskType::kRejectTuples;  // 5 minutes in Table 9
      task.category = TaskCategory::kCleaningStructure;
      task.quality = quality;
      tasks.push_back(std::move(task));
    }
    return tasks;
  }

 private:
  size_t problems_;
};

TEST(EngineTest, RunsModulesAndPricesTasks) {
  EfesEngine engine;
  engine.AddModule(std::make_unique<FakeModule>(3));
  EXPECT_EQ(engine.module_count(), 1u);
  IntegrationScenario scenario = MakeTrivialScenario();
  auto result = engine.Run(scenario, LowEffort());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->estimate.tasks.size(), 3u);
  EXPECT_DOUBLE_EQ(result->estimate.TotalMinutes(), 15.0);
  EXPECT_DOUBLE_EQ(
      result->estimate.CategoryMinutes(TaskCategory::kCleaningStructure),
      15.0);
  EXPECT_DOUBLE_EQ(result->estimate.CategoryMinutes(TaskCategory::kMapping),
                   0.0);
  ASSERT_EQ(result->module_runs.size(), 1u);
  EXPECT_EQ(result->module_runs[0].module, "fake");
  EXPECT_EQ(result->module_runs[0].report->ProblemCount(), 3u);
}

TEST(EngineTest, MultipleModulesAggregate) {
  EfesEngine engine;
  engine.AddModule(std::make_unique<FakeModule>(1));
  engine.AddModule(std::make_unique<FakeModule>(2));
  IntegrationScenario scenario = MakeTrivialScenario();
  auto result = engine.Run(scenario);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->estimate.tasks.size(), 3u);
  EXPECT_EQ(result->module_runs.size(), 2u);
}

TEST(EngineTest, RunValidatesScenario) {
  EfesEngine engine;
  engine.AddModule(std::make_unique<FakeModule>());
  // A scenario with a broken correspondence must be rejected.
  Schema target_schema("t");
  (void)target_schema.AddRelation(RelationDef("t", {}));
  Schema source_schema("s");
  (void)source_schema.AddRelation(RelationDef("s", {}));
  auto target = Database::Create(std::move(target_schema));
  auto source = Database::Create(std::move(source_schema));
  CorrespondenceSet broken;
  broken.AddRelation("ghost", "t");
  IntegrationScenario scenario("broken", std::move(*target));
  scenario.AddSource(std::move(*source), std::move(broken));
  auto result = engine.Run(scenario, LowEffort());
  EXPECT_FALSE(result.ok());
}

TEST(EngineTest, AssessComplexityRunsPhaseOneOnly) {
  EfesEngine engine;
  engine.AddModule(std::make_unique<FakeModule>(4));
  IntegrationScenario scenario = MakeTrivialScenario();
  auto reports = engine.AssessComplexity(scenario);
  ASSERT_TRUE(reports.ok());
  ASSERT_EQ(reports->size(), 1u);
  EXPECT_EQ((*reports)[0]->ProblemCount(), 4u);
}

TEST(EngineTest, CustomEffortModelIsUsed) {
  EffortModel model;  // empty: everything is free
  EfesEngine engine(std::move(model));
  engine.AddModule(std::make_unique<FakeModule>(2));
  IntegrationScenario scenario = MakeTrivialScenario();
  auto result = engine.Run(scenario, LowEffort());
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->estimate.TotalMinutes(), 0.0);
}

TEST(EngineTest, EstimateToTextContainsBreakdown) {
  EfesEngine engine;
  engine.AddModule(std::make_unique<FakeModule>(1));
  IntegrationScenario scenario = MakeTrivialScenario();
  auto result = engine.Run(scenario, LowEffort());
  ASSERT_TRUE(result.ok());
  std::string text = result->ToText();
  EXPECT_NE(text.find("fake report"), std::string::npos);
  EXPECT_NE(text.find("Total"), std::string::npos);
  EXPECT_NE(text.find("Cleaning (Structure)"), std::string::npos);
}

/// A module whose assessment fails outright — the engine must contain
/// it and keep estimating with the remaining modules.
class BrokenAssessModule : public EstimationModule {
 public:
  std::string name() const override { return "broken-assess"; }
  Result<std::unique_ptr<ComplexityReport>> AssessComplexity(
      const IntegrationScenario&, const RunContext&) const override {
    return Status::Internal("detector blew up");
  }
  Result<std::vector<Task>> PlanTasks(const ComplexityReport&,
                                      ExpectedQuality,
                                      const ExecutionSettings&) const
      override {
    return Status::Internal("unreachable");
  }
};

/// A module that throws from planning — extension code is not bound to
/// the exception-free convention, so the engine converts the throw.
class ThrowingPlanModule : public FakeModule {
 public:
  std::string name() const override { return "throwing-plan"; }
  Result<std::vector<Task>> PlanTasks(const ComplexityReport&,
                                      ExpectedQuality,
                                      const ExecutionSettings&) const
      override {
    throw std::runtime_error("planner bug");
  }
};

TEST(EngineDegradedTest, FailingModuleDegradesInsteadOfAborting) {
  EfesEngine engine;
  engine.AddModule(std::make_unique<FakeModule>(3));
  engine.AddModule(std::make_unique<BrokenAssessModule>());
  IntegrationScenario scenario = MakeTrivialScenario();
  auto result = engine.Run(scenario, LowEffort());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->degraded);
  ASSERT_EQ(result->module_runs.size(), 2u);

  // The healthy module's estimate is intact.
  EXPECT_EQ(result->module_runs[0].module, "fake");
  EXPECT_TRUE(result->module_runs[0].ok());
  EXPECT_DOUBLE_EQ(result->estimate.TotalMinutes(), 15.0);

  // The broken module is present, marked failed, with no report.
  const ModuleRun& broken = result->module_runs[1];
  EXPECT_EQ(broken.module, "broken-assess");
  EXPECT_FALSE(broken.ok());
  EXPECT_EQ(broken.report, nullptr);
  EXPECT_TRUE(broken.tasks.empty());
  EXPECT_NE(broken.status.message().find("detector blew up"),
            std::string::npos);
}

TEST(EngineDegradedTest, ThrowingModuleIsConvertedToStatus) {
  EfesEngine engine;
  engine.AddModule(std::make_unique<ThrowingPlanModule>());
  IntegrationScenario scenario = MakeTrivialScenario();
  auto result = engine.Run(scenario, LowEffort());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->degraded);
  ASSERT_EQ(result->module_runs.size(), 1u);
  const ModuleRun& run = result->module_runs[0];
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(run.status.code(), StatusCode::kInternal);
  EXPECT_NE(run.status.message().find("planner bug"), std::string::npos);
  // Assessment succeeded before the planner threw; the report survives
  // in the partial result even though its tasks do not.
  EXPECT_NE(run.report, nullptr);
  EXPECT_DOUBLE_EQ(result->estimate.TotalMinutes(), 0.0);
}

TEST(EngineDegradedTest, DegradedTextCallsOutTheFailure) {
  EfesEngine engine;
  engine.AddModule(std::make_unique<BrokenAssessModule>());
  IntegrationScenario scenario = MakeTrivialScenario();
  auto result = engine.Run(scenario, LowEffort());
  ASSERT_TRUE(result.ok());
  std::string text = result->ToText();
  EXPECT_NE(text.find("DEGRADED RUN"), std::string::npos);
  EXPECT_NE(text.find("module failed"), std::string::npos);
}

TEST(EngineDegradedTest, CleanRunTextHasNoDegradedMarkers) {
  EfesEngine engine;
  engine.AddModule(std::make_unique<FakeModule>(1));
  IntegrationScenario scenario = MakeTrivialScenario();
  auto result = engine.Run(scenario, LowEffort());
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->degraded);
  EXPECT_EQ(result->ToText().find("DEGRADED"), std::string::npos);
  EXPECT_EQ(result->ToText().find("module failed"), std::string::npos);
}

TEST(EffortEstimateTest, EmptyEstimate) {
  EffortEstimate estimate;
  EXPECT_DOUBLE_EQ(estimate.TotalMinutes(), 0.0);
  EXPECT_NE(estimate.ToText().find("Total"), std::string::npos);
}

TEST(SetEffortModelTest, AcceptsValidModelAndInstallsIt) {
  EfesEngine engine;
  EffortModel model = EffortModel::PaperDefault();
  model.set_global_scale(2.0);
  ASSERT_TRUE(engine.set_effort_model(std::move(model)).ok());
  EXPECT_DOUBLE_EQ(engine.effort_model().global_scale(), 2.0);
}

TEST(SetEffortModelTest, RejectsBadScaleAndKeepsTheOldModel) {
  EfesEngine engine;
  EffortModel good = EffortModel::PaperDefault();
  good.set_global_scale(3.0);
  ASSERT_TRUE(engine.set_effort_model(std::move(good)).ok());

  EffortModel zero;
  zero.set_global_scale(0.0);
  EXPECT_FALSE(engine.set_effort_model(std::move(zero)).ok());
  EffortModel negative;
  negative.set_global_scale(-1.0);
  EXPECT_FALSE(engine.set_effort_model(std::move(negative)).ok());
  EffortModel not_a_number;
  not_a_number.set_global_scale(std::numeric_limits<double>::quiet_NaN());
  EXPECT_FALSE(engine.set_effort_model(std::move(not_a_number)).ok());
  EffortModel infinite;
  infinite.set_global_scale(std::numeric_limits<double>::infinity());
  EXPECT_FALSE(engine.set_effort_model(std::move(infinite)).ok());

  EXPECT_DOUBLE_EQ(engine.effort_model().global_scale(), 3.0);
}

TEST(SetEffortModelTest, InstalledModelPricesTasks) {
  EfesEngine engine;
  engine.AddModule(std::make_unique<FakeModule>(3));
  EffortModel doubled = EffortModel::PaperDefault();
  doubled.set_global_scale(2.0);
  ASSERT_TRUE(engine.set_effort_model(std::move(doubled)).ok());
  IntegrationScenario scenario = MakeTrivialScenario();
  auto result = engine.Run(scenario, LowEffort());
  ASSERT_TRUE(result.ok());
  // 3 reject-tuples tasks at 5 min each, doubled by the global scale.
  EXPECT_DOUBLE_EQ(result->estimate.TotalMinutes(), 30.0);
}

// ------------------------------------------------------------ concurrency

/// The rendered output of one run of `engine`: the JSON export, with the
/// provenance section when `record` gives the run a recorder.
std::string RenderedRun(const EfesEngine& engine,
                        const IntegrationScenario& scenario,
                        RunOptions options, bool record) {
  ProvenanceRecorder recorder;
  if (record) options.recorder = &recorder;
  auto result = engine.Run(scenario, options);
  if (!result.ok()) return result.status().ToString();
  const ProvenanceSnapshot snapshot = recorder.Snapshot();
  return EstimationResultToJson(*result, nullptr,
                                record ? &snapshot : nullptr);
}

uint64_t ColumnsProfiled() {
  return MetricsRegistry::Global().Snapshot().CounterValue(
      "profiling.statistics.columns");
}

/// Runs A and B kRuns times each, on two threads at once, and expects
/// every output to equal the same run done alone, and every run to
/// compute as many profiles as it does alone: no run reads a profile
/// another run computed.
void ExpectConcurrentRunsMatchSolo(const IntegrationScenario& scenario,
                                   const RunOptions& a, bool a_records,
                                   const RunOptions& b, bool b_records) {
  constexpr int kRuns = 20;
  const EfesEngine engine = MakeDefaultEngine();
  // One thread per run, so each run executes wholly on its own thread.
  SetThreadCountOverride(1);
  uint64_t before = ColumnsProfiled();
  const std::string solo_a = RenderedRun(engine, scenario, a, a_records);
  const uint64_t a_columns = ColumnsProfiled() - before;
  before = ColumnsProfiled();
  const std::string solo_b = RenderedRun(engine, scenario, b, b_records);
  const uint64_t b_columns = ColumnsProfiled() - before;
  ASSERT_NE(solo_a, solo_b);
  ASSERT_GT(a_columns, 0u);
  auto repeat = [&](const RunOptions& options, bool record,
                    const std::string& solo, int* differing) {
    for (int run = 0; run < kRuns; ++run) {
      if (RenderedRun(engine, scenario, options, record) != solo) {
        ++*differing;
      }
    }
  };
  int a_differing = 0;
  int b_differing = 0;
  before = ColumnsProfiled();
  std::thread thread_a(repeat, std::cref(a), a_records, std::cref(solo_a),
                       &a_differing);
  std::thread thread_b(repeat, std::cref(b), b_records, std::cref(solo_b),
                       &b_differing);
  thread_a.join();
  thread_b.join();
  SetThreadCountOverride(0);
  EXPECT_EQ(a_differing, 0) << "of " << kRuns << " runs of A";
  EXPECT_EQ(b_differing, 0) << "of " << kRuns << " runs of B";
  EXPECT_EQ(ColumnsProfiled() - before, kRuns * (a_columns + b_columns));
}

TEST(EngineTest, ConcurrentRunsKeepTheirOwnOptionsAndRecorder) {
  // Each run's profile options and recorder travel in its own RunOptions,
  // so a run's output does not depend on what another run in the same
  // process does at the same time.
  RunOptions exact;
  exact.profile.mode = ApproximationMode::kExact;
  exact.profile.max_memory_bytes = 4000;  // degrades the values module
  RunOptions sketch;
  sketch.profile.mode = ApproximationMode::kSketch;
  sketch.profile.max_memory_bytes = 4000;
  auto scenario = MakePaperExample();
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  {
    SCOPED_TRACE("A: exact and recorded, B: sketch");
    ExpectConcurrentRunsMatchSolo(*scenario, exact, /*a_records=*/true,
                                  sketch, /*b_records=*/false);
  }
  {
    SCOPED_TRACE("equal default options, only A records");
    ExpectConcurrentRunsMatchSolo(*scenario, RunOptions{}, /*a_records=*/true,
                                  RunOptions{}, /*b_records=*/false);
  }
}

// ------------------------------------------------- run-scoped profiles

/// Three sources correspond into the same populated target columns, the
/// shape of the benchmark's estimate workloads: the dedup module blocks
/// the entity relation, whose columns the value module profiles too.
IntegrationScenario MakeThreeSourceScenario() {
  FuzzOptions options;
  options.min_sources = options.max_sources = 3;
  options.min_entities = options.max_entities = 300;
  options.target_data_rate = 1.0;
  auto fuzzed = FuzzScenario(1, options);
  EXPECT_TRUE(fuzzed.ok()) << fuzzed.status();
  return std::move(fuzzed->scenario);
}

using ColumnKey = std::pair<const std::vector<Value>*, DataType>;

/// The target attributes of `scenario`'s constraints of the given kinds,
/// as "relation.attribute".
std::set<std::string> ConstrainedAttributes(
    const IntegrationScenario& scenario, std::set<ConstraintKind> kinds) {
  std::set<std::string> attributes;
  for (const Constraint& c : scenario.target.schema().constraints()) {
    if (kinds.count(c.kind) == 0) continue;
    for (const std::string& attribute : c.attributes) {
      attributes.insert(c.relation + "." + attribute);
    }
  }
  return attributes;
}

/// What the value module profiles: the source and the target column of
/// every correspondence outside the target's foreign keys, each against
/// the target attribute's type.
std::set<ColumnKey> ValueColumns(const IntegrationScenario& scenario) {
  const std::set<std::string> skipped =
      ConstrainedAttributes(scenario, {ConstraintKind::kForeignKey});
  std::set<ColumnKey> columns;
  for (const SourceBinding& source : scenario.sources) {
    for (const Correspondence& corr : source.correspondences.all()) {
      if (!corr.is_attribute_level() ||
          skipped.count(corr.target_relation + "." + corr.target_attribute)) {
        continue;
      }
      const Table* source_table = *source.database.table(corr.source_relation);
      const Table* target_table = *scenario.target.table(corr.target_relation);
      const DataType type =
          target_table->def().Attribute(corr.target_attribute)->type;
      columns.emplace(*source_table->ColumnByName(corr.source_attribute), type);
      columns.emplace(*target_table->ColumnByName(corr.target_attribute), type);
    }
  }
  return columns;
}

/// What the dedup module profiles: for each target relation fed by two or
/// more source relations, every feed's column of each attribute all
/// feeds correspond outside the target's keys.
std::set<ColumnKey> DedupColumns(const IntegrationScenario& scenario) {
  const std::set<std::string> skipped = ConstrainedAttributes(
      scenario, {ConstraintKind::kPrimaryKey, ConstraintKind::kForeignKey});
  // relation -> feed -> target attribute -> column.
  std::map<std::string, std::map<std::string, std::map<std::string, ColumnKey>>>
      feeds;
  for (const SourceBinding& source : scenario.sources) {
    for (const Correspondence& corr : source.correspondences.all()) {
      if (!corr.is_attribute_level() ||
          skipped.count(corr.target_relation + "." + corr.target_attribute)) {
        continue;
      }
      const Table* source_table = *source.database.table(corr.source_relation);
      const Table* target_table = *scenario.target.table(corr.target_relation);
      feeds[corr.target_relation]
           [source.database.name() + ":" + corr.source_relation]
           [corr.target_attribute] = ColumnKey(
               *source_table->ColumnByName(corr.source_attribute),
               target_table->def().Attribute(corr.target_attribute)->type);
    }
  }
  std::set<ColumnKey> columns;
  for (const auto& [relation, by_feed] : feeds) {
    if (by_feed.size() < 2) continue;
    for (const auto& [attribute, unused] : by_feed.begin()->second) {
      bool shared = true;
      for (const auto& [feed, by_attribute] : by_feed) {
        shared = shared && by_attribute.count(attribute) > 0;
      }
      if (!shared) continue;
      for (const auto& [feed, by_attribute] : by_feed) {
        columns.insert(by_attribute.at(attribute));
      }
    }
  }
  return columns;
}

/// Forwards to a module with the memo taken out of its context: the
/// module profiles as if it ran alone.
class Unshared : public EstimationModule {
 public:
  explicit Unshared(std::unique_ptr<EstimationModule> module)
      : module_(std::move(module)) {}
  std::string name() const override { return module_->name(); }
  Result<std::unique_ptr<ComplexityReport>> AssessComplexity(
      const IntegrationScenario& scenario,
      const RunContext& context) const override {
    RunContext alone = context;
    alone.memo = nullptr;
    return module_->AssessComplexity(scenario, alone);
  }
  Result<std::vector<Task>> PlanTasks(
      const ComplexityReport& report, ExpectedQuality quality,
      const ExecutionSettings& settings) const override {
    return module_->PlanTasks(report, quality, settings);
  }

 private:
  std::unique_ptr<EstimationModule> module_;
};

/// An engine of the value and the dedup module, sharing the run's
/// profiles or (`unshared`) each profiling on its own.
EfesEngine ValueAndDedupEngine(const ValueFitOptions& values,
                               const DedupOptions& dedup, bool unshared) {
  EfesEngine engine;
  std::unique_ptr<EstimationModule> value_module =
      std::make_unique<ValueModule>(values);
  std::unique_ptr<EstimationModule> dedup_module =
      std::make_unique<DedupModule>(dedup);
  if (unshared) {
    value_module = std::make_unique<Unshared>(std::move(value_module));
    dedup_module = std::make_unique<Unshared>(std::move(dedup_module));
  }
  engine.AddModule(std::move(value_module));
  engine.AddModule(std::move(dedup_module));
  return engine;
}

TEST(EngineTest, RunProfilesEachColumnOnceAcrossModules) {
  const IntegrationScenario scenario = MakeThreeSourceScenario();
  const std::set<ColumnKey> values = ValueColumns(scenario);
  const std::set<ColumnKey> dedup = DedupColumns(scenario);
  ASSERT_FALSE(dedup.empty());
  std::set<ColumnKey> distinct = values;
  distinct.insert(dedup.begin(), dedup.end());

  const EfesEngine engine = MakeDefaultEngine();
  uint64_t before = ColumnsProfiled();
  auto result = engine.Run(scenario, RunOptions{});
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_FALSE(result->degraded);
  EXPECT_EQ(ColumnsProfiled() - before, distinct.size());

  before = ColumnsProfiled();
  auto reports = engine.AssessComplexity(scenario, RunOptions{});
  ASSERT_TRUE(reports.ok()) << reports.status();
  EXPECT_EQ(ColumnsProfiled() - before, distinct.size());

  // Each module on its own profiles all of its columns again.
  before = ColumnsProfiled();
  ASSERT_TRUE(ValueModule().AssessComplexity(scenario, RunContext{}).ok());
  ASSERT_TRUE(DedupModule().AssessComplexity(scenario, RunContext{}).ok());
  EXPECT_EQ(ColumnsProfiled() - before, values.size() + dedup.size());
}

TEST(EngineTest, ConcurrentRunsKeepTheirOwnProfiles) {
  // Both runs profile the same columns under different options, so a
  // profile one run handed the other would change its output.
  const IntegrationScenario scenario = MakeThreeSourceScenario();
  RunOptions sketch;
  sketch.profile.mode = ApproximationMode::kSketch;
  sketch.profile.max_memory_bytes = 4000;
  ExpectConcurrentRunsMatchSolo(scenario, RunOptions{}, /*a_records=*/true,
                                sketch, /*b_records=*/false);
}

TEST(EngineTest, SampleLimitsOfEachModuleKeepTheirOwnSamples) {
  // A values sample and a dedup sample of one column at different limits
  // are different columns; at one limit they are the same one. Either
  // way the run reports exactly what the modules report alone.
  const IntegrationScenario scenario = MakeThreeSourceScenario();
  for (const auto& [values_limit, dedup_limit] :
       std::vector<std::pair<size_t, size_t>>{
           {100, 150}, {150, 100}, {100, 100}, {0, 120}, {120, 0}}) {
    SCOPED_TRACE("values " + std::to_string(values_limit) + ", dedup " +
                 std::to_string(dedup_limit));
    ValueFitOptions values;
    values.sample_limit = values_limit;
    DedupOptions dedup;
    dedup.sample_limit = dedup_limit;
    const EfesEngine shared = ValueAndDedupEngine(values, dedup, false);
    const EfesEngine unshared = ValueAndDedupEngine(values, dedup, true);
    uint64_t before = ColumnsProfiled();
    const std::string alone =
        RenderedRun(unshared, scenario, RunOptions{}, /*record=*/true);
    const uint64_t alone_columns = ColumnsProfiled() - before;
    before = ColumnsProfiled();
    EXPECT_EQ(RenderedRun(shared, scenario, RunOptions{}, /*record=*/true),
              alone);
    const uint64_t shared_columns = ColumnsProfiled() - before;
    EXPECT_NE(alone.find("\"dedup\""), std::string::npos);
    if (values_limit == dedup_limit) {
      EXPECT_LT(shared_columns, alone_columns);
    } else if (values_limit != 0 && dedup_limit != 0) {
      // Every column is longer than both limits: nothing is shared.
      EXPECT_EQ(shared_columns, alone_columns);
    }
  }
}

TEST(EngineTest, FailedBatchesLeaveTheNextModuleItsOwnError) {
  // An exact budget no column fits fails the values batch; nothing of it
  // is kept for the run, so the dedup batch fails as it does alone, with
  // the same error and provenance ids.
  const IntegrationScenario scenario = MakeThreeSourceScenario();
  RunOptions options;
  options.profile.mode = ApproximationMode::kExact;
  options.profile.max_memory_bytes = 300;
  const EfesEngine shared =
      ValueAndDedupEngine(ValueFitOptions{}, DedupOptions{}, false);
  const EfesEngine unshared =
      ValueAndDedupEngine(ValueFitOptions{}, DedupOptions{}, true);
  EXPECT_EQ(RenderedRun(shared, scenario, options, /*record=*/true),
            RenderedRun(unshared, scenario, options, /*record=*/true));

  ProvenanceRecorder recorder;
  options.recorder = &recorder;
  auto result = shared.Run(scenario, options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->module_runs.size(), 2u);
  for (const ModuleRun& run : result->module_runs) {
    EXPECT_EQ(run.status.code(), StatusCode::kResourceExhausted) << run.module;
  }
  // Three run-wide parameters, the value module's three thresholds, the
  // dedup module's four, then the total.
  const ProvenanceSnapshot snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.nodes.size(), 11u);
  for (size_t i = 3; i < 10; ++i) {
    EXPECT_EQ(snapshot.nodes[i].kind, ProvenanceKind::kThreshold)
        << snapshot.nodes[i].label;
  }
}

}  // namespace
}  // namespace efes
