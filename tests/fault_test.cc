// Tests for the deterministic fault-injection registry, plus the
// end-to-end fault matrix: every registered fault point, when armed,
// degrades the pipeline into a structured error or partial report —
// never a crash — and with nothing armed the pipeline output is
// identical to a run without the harness.

#include "efes/common/fault.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "efes/common/csv.h"
#include "efes/common/file_io.h"
#include "efes/common/parallel.h"
#include "efes/core/engine.h"
#include "efes/execute/integration_executor.h"
#include "efes/experiment/default_pipeline.h"
#include "efes/scenario/paper_example.h"
#include "efes/scenario/scenario_io.h"
#include "efes/common/metrics.h"

#include "test_paths.h"

namespace efes {
namespace {

/// Every test disarms on both ends: the registry is process-global, and
/// a leaked arming would poison unrelated tests in this binary.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().DisarmAll(); }
  void TearDown() override { FaultRegistry::Global().DisarmAll(); }
};

TEST_F(FaultTest, DisarmedPointsAlwaysPass) {
  EXPECT_FALSE(FaultRegistry::Global().AnyArmed());
  EXPECT_TRUE(CheckFaultPoint("nowhere.special").ok());
  EXPECT_TRUE(CheckFaultPoint("csv.read").ok());
  EXPECT_EQ(FaultRegistry::Global().HitCount("csv.read"), 0u);
}

TEST_F(FaultTest, DefaultSpecFiresEveryHit) {
  ASSERT_TRUE(FaultRegistry::Global().ArmFromString("test.point").ok());
  EXPECT_TRUE(FaultRegistry::Global().AnyArmed());
  for (int i = 0; i < 3; ++i) {
    Status status = CheckFaultPoint("test.point");
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kUnavailable);
    EXPECT_NE(status.message().find("test.point"), std::string::npos);
  }
  EXPECT_EQ(FaultRegistry::Global().HitCount("test.point"), 3u);
  // Other points stay untouched.
  EXPECT_TRUE(CheckFaultPoint("other.point").ok());
}

TEST_F(FaultTest, OnceFiresOnFirstHitOnly) {
  ASSERT_TRUE(FaultRegistry::Global().ArmFromString("test.point:once").ok());
  EXPECT_FALSE(CheckFaultPoint("test.point").ok());
  EXPECT_TRUE(CheckFaultPoint("test.point").ok());
  EXPECT_TRUE(CheckFaultPoint("test.point").ok());
}

TEST_F(FaultTest, NthHitTriggersExactlyOnce) {
  ASSERT_TRUE(FaultRegistry::Global().ArmFromString("test.point:n=3").ok());
  EXPECT_TRUE(CheckFaultPoint("test.point").ok());
  EXPECT_TRUE(CheckFaultPoint("test.point").ok());
  EXPECT_FALSE(CheckFaultPoint("test.point").ok());
  EXPECT_TRUE(CheckFaultPoint("test.point").ok());
}

TEST_F(FaultTest, CountFiresLeadingHitsThenRecovers) {
  ASSERT_TRUE(
      FaultRegistry::Global().ArmFromString("test.point:count=2").ok());
  EXPECT_FALSE(CheckFaultPoint("test.point").ok());
  EXPECT_FALSE(CheckFaultPoint("test.point").ok());
  EXPECT_TRUE(CheckFaultPoint("test.point").ok());
  EXPECT_TRUE(CheckFaultPoint("test.point").ok());
}

TEST_F(FaultTest, ProbabilityIsSeededAndDeterministic) {
  auto run_sequence = [] {
    FaultRegistry::Global().DisarmAll();
    EXPECT_TRUE(FaultRegistry::Global()
                    .ArmFromString("test.point:p=0.5,seed=42")
                    .ok());
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(!CheckFaultPoint("test.point").ok());
    }
    return fired;
  };
  std::vector<bool> first = run_sequence();
  std::vector<bool> second = run_sequence();
  EXPECT_EQ(first, second);
  // p=0.5 over 64 draws fires at least once and passes at least once.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

TEST_F(FaultTest, ThrowSpecThrows) {
  ASSERT_TRUE(
      FaultRegistry::Global().ArmFromString("test.point:throw").ok());
  EXPECT_THROW((void)CheckFaultPoint("test.point"), std::runtime_error);
}

TEST_F(FaultTest, CodeOptionSelectsStatusCode) {
  ASSERT_TRUE(FaultRegistry::Global()
                  .ArmFromString("test.point:code=notfound")
                  .ok());
  EXPECT_EQ(CheckFaultPoint("test.point").code(), StatusCode::kNotFound);
  FaultRegistry::Global().DisarmAll();
  ASSERT_TRUE(FaultRegistry::Global()
                  .ArmFromString("test.point:code=resource")
                  .ok());
  EXPECT_EQ(CheckFaultPoint("test.point").code(),
            StatusCode::kResourceExhausted);
}

TEST_F(FaultTest, ArmFromListArmsEverySpec) {
  ASSERT_TRUE(
      FaultRegistry::Global().ArmFromList("a.one:once;b.two:n=2").ok());
  std::vector<std::string> points = FaultRegistry::Global().ArmedPoints();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0], "a.one");
  EXPECT_EQ(points[1], "b.two");
}

TEST_F(FaultTest, MalformedSpecsAreRejected) {
  FaultRegistry& registry = FaultRegistry::Global();
  EXPECT_FALSE(registry.ArmFromString("").ok());
  EXPECT_FALSE(registry.ArmFromString(":once").ok());
  EXPECT_FALSE(registry.ArmFromString("p:bogus-option").ok());
  EXPECT_FALSE(registry.ArmFromString("p:n=zero").ok());
  EXPECT_FALSE(registry.ArmFromString("p:p=2.5").ok());
  EXPECT_FALSE(registry.ArmFromString("p:code=enoent").ok());
}

TEST_F(FaultTest, CountersTrackHitsAndFires) {
  ASSERT_TRUE(
      FaultRegistry::Global().ArmFromString("test.metrics:n=2").ok());
  MetricsRegistry& metrics = MetricsRegistry::Global();
  uint64_t hits_before =
      metrics.GetCounter("fault.test.metrics.hits").Value();
  uint64_t fired_before =
      metrics.GetCounter("fault.test.metrics.fired").Value();
  uint64_t global_before = metrics.GetCounter("fault.fired").Value();
  (void)CheckFaultPoint("test.metrics");
  (void)CheckFaultPoint("test.metrics");
  (void)CheckFaultPoint("test.metrics");
  EXPECT_EQ(metrics.GetCounter("fault.test.metrics.hits").Value(),
            hits_before + 3);
  EXPECT_EQ(metrics.GetCounter("fault.test.metrics.fired").Value(),
            fired_before + 1);
  EXPECT_EQ(metrics.GetCounter("fault.fired").Value(), global_before + 1);
}

TEST_F(FaultTest, DisarmAllResetsEverything) {
  ASSERT_TRUE(FaultRegistry::Global().ArmFromString("test.point").ok());
  EXPECT_FALSE(CheckFaultPoint("test.point").ok());
  FaultRegistry::Global().DisarmAll();
  EXPECT_FALSE(FaultRegistry::Global().AnyArmed());
  EXPECT_TRUE(CheckFaultPoint("test.point").ok());
  EXPECT_EQ(FaultRegistry::Global().HitCount("test.point"), 0u);
}

// --- End-to-end fault matrix ------------------------------------------

/// Pipeline fixture: a scenario saved to disk once, reloaded and
/// estimated under each armed fault point.
class FaultMatrixTest : public FaultTest {
 protected:
  void SetUp() override {
    FaultTest::SetUp();
    directory_ = TestScratchPath("efes_fault_matrix");
    std::filesystem::remove_all(directory_);
    PaperExampleOptions options;
    options.album_count = 40;
    options.song_count = 50;
    auto scenario = MakePaperExample(options);
    ASSERT_TRUE(scenario.ok());
    ASSERT_TRUE(SaveScenario(*scenario, directory_).ok());
  }
  void TearDown() override {
    std::filesystem::remove_all(directory_);
    FaultTest::TearDown();
  }

  /// Loads + estimates, returning the engine status (a structured
  /// failure is fine; a crash or hang is what the matrix rules out).
  Result<EstimationResult> RunPipeline() {
    auto scenario = LoadScenario(directory_);
    if (!scenario.ok()) return scenario.status();
    EfesEngine engine = MakeDefaultEngine();
    return engine.Run(*scenario);
  }

  std::string directory_;
};

TEST_F(FaultMatrixTest, EveryIoAndLoadPointDegradesCleanly) {
  // I/O-layer points: each must surface as a clean non-OK status from
  // either the load or the run, never an exception or crash.
  const char* points[] = {"io.read", "csv.read", "scenario.load"};
  for (const char* point : points) {
    SCOPED_TRACE(point);
    FaultRegistry::Global().DisarmAll();
    ASSERT_TRUE(FaultRegistry::Global().ArmFromString(point).ok());
    auto result = RunPipeline();
    EXPECT_FALSE(result.ok());
    EXPECT_FALSE(result.status().message().empty());
  }
}

TEST_F(FaultMatrixTest, EnginePointsProduceDegradedPartialReport) {
  // Module-boundary points fire inside the engine, which contains them:
  // the run succeeds, marked degraded, with per-module failure status.
  for (const char* point : {"engine.assess", "engine.plan"}) {
    SCOPED_TRACE(point);
    FaultRegistry::Global().DisarmAll();
    ASSERT_TRUE(FaultRegistry::Global().ArmFromString(point).ok());
    auto result = RunPipeline();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->degraded);
    size_t failed = 0;
    for (const ModuleRun& run : result->module_runs) {
      if (!run.ok()) ++failed;
    }
    EXPECT_GT(failed, 0u);
  }
}

TEST_F(FaultMatrixTest, ThrowingEnginePointIsContainedToo) {
  ASSERT_TRUE(
      FaultRegistry::Global().ArmFromString("engine.assess:throw").ok());
  auto result = RunPipeline();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->degraded);
  ASSERT_FALSE(result->module_runs.empty());
  bool saw_exception_status = false;
  for (const ModuleRun& run : result->module_runs) {
    if (!run.status.ok() &&
        run.status.message().find("exception") != std::string::npos) {
      saw_exception_status = true;
    }
  }
  EXPECT_TRUE(saw_exception_status);
}

TEST_F(FaultMatrixTest, WritePointsFailSavesCleanly) {
  auto scenario = LoadScenario(directory_);
  ASSERT_TRUE(scenario.ok());
  const std::string out = TestScratchPath("efes_fault_matrix_out");
  for (const char* point :
       {"io.write.open", "io.write.write", "io.write.commit"}) {
    SCOPED_TRACE(point);
    FaultRegistry::Global().DisarmAll();
    ASSERT_TRUE(FaultRegistry::Global().ArmFromString(point).ok());
    std::filesystem::remove_all(out);
    Status status = SaveScenario(*scenario, out);
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  }
  FaultRegistry::Global().DisarmAll();
  std::filesystem::remove_all(out);
}

TEST_F(FaultMatrixTest, ParallelTaskPointSurfacesLowestIndexError) {
  ASSERT_TRUE(FaultRegistry::Global().ArmFromString("parallel.task").ok());
  Status status = ParallelFor(8, [](size_t) { return Status::OK(); });
  EXPECT_FALSE(status.ok());
  FaultRegistry::Global().DisarmAll();
  // Throwing tasks are converted to Status by the pool, not propagated.
  ASSERT_TRUE(
      FaultRegistry::Global().ArmFromString("parallel.task:throw").ok());
  status = ParallelFor(8, [](size_t) { return Status::OK(); });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("exception"), std::string::npos);
}

TEST_F(FaultMatrixTest, ExecutePointAbortsExecutionCleanly) {
  ASSERT_TRUE(FaultRegistry::Global().ArmFromString("execute.run").ok());
  auto scenario = LoadScenario(directory_);
  ASSERT_TRUE(scenario.ok());
  IntegrationExecutor executor;
  auto executed = executor.Execute(*scenario, nullptr);
  EXPECT_FALSE(executed.ok());
  EXPECT_EQ(executed.status().code(), StatusCode::kUnavailable);
}

TEST_F(FaultMatrixTest, DisabledFaultsLeaveOutputIdentical) {
  auto baseline = RunPipeline();
  ASSERT_TRUE(baseline.ok());
  // Arm, fire once against an unrelated point, disarm — then re-run.
  ASSERT_TRUE(FaultRegistry::Global().ArmFromString("test.point").ok());
  (void)CheckFaultPoint("test.point");
  FaultRegistry::Global().DisarmAll();
  auto rerun = RunPipeline();
  ASSERT_TRUE(rerun.ok());
  EXPECT_FALSE(baseline->degraded);
  EXPECT_FALSE(rerun->degraded);
  EXPECT_EQ(rerun->ToText(), baseline->ToText());
  EXPECT_DOUBLE_EQ(rerun->estimate.TotalMinutes(),
                   baseline->estimate.TotalMinutes());
}

}  // namespace
}  // namespace efes
