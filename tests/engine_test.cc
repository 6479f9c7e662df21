// Tests for the EFES engine: module orchestration, aggregation, and the
// extensibility contract (a custom module plugs in unchanged).

#include "efes/core/engine.h"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>

#include "efes/common/parallel.h"
#include "efes/experiment/default_pipeline.h"
#include "efes/experiment/json_export.h"
#include "efes/provenance/provenance.h"
#include "efes/scenario/paper_example.h"

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

/// Runs A and B kRuns times each, on two threads at once, and expects
/// every output to equal the same run done alone.
void ExpectConcurrentRunsMatchSolo(const RunOptions& a, bool a_records,
                                   const RunOptions& b, bool b_records) {
  constexpr int kRuns = 20;
  auto scenario = MakePaperExample();
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  const EfesEngine engine = MakeDefaultEngine();
  const std::string solo_a = RenderedRun(engine, *scenario, a, a_records);
  const std::string solo_b = RenderedRun(engine, *scenario, b, b_records);
  ASSERT_NE(solo_a, solo_b);
  auto repeat = [&](const RunOptions& options, bool record,
                    const std::string& solo, int* differing) {
    for (int run = 0; run < kRuns; ++run) {
      if (RenderedRun(engine, *scenario, options, record) != solo) {
        ++*differing;
      }
    }
  };
  int a_differing = 0;
  int b_differing = 0;
  // One thread per run, so each run executes wholly on its own thread.
  SetThreadCountOverride(1);
  std::thread thread_a(repeat, std::cref(a), a_records, std::cref(solo_a),
                       &a_differing);
  std::thread thread_b(repeat, std::cref(b), b_records, std::cref(solo_b),
                       &b_differing);
  thread_a.join();
  thread_b.join();
  SetThreadCountOverride(0);
  EXPECT_EQ(a_differing, 0) << "of " << kRuns << " runs of A";
  EXPECT_EQ(b_differing, 0) << "of " << kRuns << " runs of B";
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
  {
    SCOPED_TRACE("A: exact and recorded, B: sketch");
    ExpectConcurrentRunsMatchSolo(exact, /*a_records=*/true, sketch,
                                  /*b_records=*/false);
  }
  {
    SCOPED_TRACE("equal default options, only A records");
    ExpectConcurrentRunsMatchSolo(RunOptions{}, /*a_records=*/true,
                                  RunOptions{}, /*b_records=*/false);
  }
}

}  // namespace
}  // namespace efes
