// End-to-end determinism of the parallel pipeline: running the same
// estimation with 1, 2, and 8 threads must produce byte-identical JSON
// reports and identical scheduling-independent telemetry counters, also
// when a parallel batch fails.
// Only metrics under the `parallel.pool.` prefix (and the timing
// histograms) may differ between runs — they describe how the work was
// distributed, not what was computed.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "efes/common/fault.h"
#include "efes/common/file_io.h"
#include "efes/common/parallel.h"
#include "efes/experiment/default_pipeline.h"
#include "efes/experiment/json_export.h"
#include "efes/matching/schema_matcher.h"
#include "efes/profiling/constraint_discovery.h"
#include "efes/cache/profile_cache.h"
#include "efes/scenario/bibliographic.h"
#include "efes/scenario/paper_example.h"
#include "efes/scenario/fuzzer.h"
#include "efes/scenario/scenario_io.h"
#include "efes/common/metrics.h"
#include "efes/structure/conflict_detector.h"
#include "test_paths.h"

namespace efes {
namespace {

const size_t kThreadCounts[] = {1, 2, 8};

IntegrationScenario MakeScenario() {
  BiblioOptions options;
  options.publication_count = 200;
  options.missing_venue_rate = 0.15;
  options.sloppy_year_rate = 0.2;
  auto scenario =
      MakeBiblioScenario(BiblioSchemaId::kS1, BiblioSchemaId::kS2, options);
  EXPECT_TRUE(scenario.ok());
  return std::move(*scenario);
}

/// Counters that must be identical for any thread count: everything
/// except the `parallel.pool.` distribution metrics.
std::map<std::string, uint64_t> DeterministicCounters(
    const MetricsSnapshot& snapshot) {
  std::map<std::string, uint64_t> counters;
  for (const auto& counter : snapshot.counters) {
    if (counter.name.rfind("parallel.pool.", 0) == 0) continue;
    counters[counter.name] = counter.value;
  }
  return counters;
}

TEST(ParallelDeterminismTest, EstimateJsonIsByteIdenticalAcrossThreadCounts) {
  IntegrationScenario scenario = MakeScenario();
  std::vector<std::string> reports;
  std::vector<std::map<std::string, uint64_t>> counters;
  for (size_t threads : kThreadCounts) {
    SetThreadCountOverride(threads);
    MetricsRegistry::Global().Reset();
    EfesEngine engine = MakeDefaultEngine();
    auto result = engine.Run(scenario);
    ASSERT_TRUE(result.ok()) << result.status();
    reports.push_back(EstimationResultToJson(*result));
    counters.push_back(
        DeterministicCounters(MetricsRegistry::Global().Snapshot()));
  }
  SetThreadCountOverride(0);
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_EQ(reports[0], reports[2]);
  EXPECT_EQ(counters[0], counters[1]);
  EXPECT_EQ(counters[0], counters[2]);
}

TEST(ParallelDeterminismTest, ConstraintDiscoveryIsThreadCountInvariant) {
  IntegrationScenario scenario = MakeScenario();
  ASSERT_FALSE(scenario.sources.empty());
  const Database& database = scenario.sources[0].database;
  std::vector<std::vector<std::string>> runs;
  for (size_t threads : kThreadCounts) {
    SetThreadCountOverride(threads);
    auto discovered = DiscoverConstraints(database, DiscoveryOptions{});
    ASSERT_TRUE(discovered.ok()) << discovered.status();
    std::vector<std::string> rendered;
    for (const DiscoveredConstraint& d : *discovered) {
      rendered.push_back(d.ToString());
    }
    runs.push_back(std::move(rendered));
  }
  SetThreadCountOverride(0);
  EXPECT_FALSE(runs[0].empty());
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(ParallelDeterminismTest, SchemaMatchingIsThreadCountInvariant) {
  IntegrationScenario scenario = MakeScenario();
  ASSERT_FALSE(scenario.sources.empty());
  SchemaMatcher matcher;
  std::vector<std::string> runs;
  for (size_t threads : kThreadCounts) {
    SetThreadCountOverride(threads);
    auto matched =
        matcher.Match(scenario.sources[0].database, scenario.target);
    ASSERT_TRUE(matched.ok());
    runs.push_back(WriteCorrespondences(*matched));
  }
  SetThreadCountOverride(0);
  EXPECT_FALSE(runs[0].empty());
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(ParallelDeterminismTest, FuzzedScenarioIsThreadAndCacheInvariant) {
  // A fuzzed scenario exercises the dedup module's blocking scan, the
  // heaviest new parallel section; the JSON must not depend on the
  // thread count, on the streaming block size (which in-memory profiling
  // does not read), or on whether profiling statistics come from a
  // cache.
  auto fuzzed = FuzzScenario(42);
  ASSERT_TRUE(fuzzed.ok()) << fuzzed.status();
  std::vector<std::string> reports;
  for (size_t chunk_rows : {ProfileOptions().chunk_rows, size_t{7}}) {
    for (size_t threads : kThreadCounts) {
      SetThreadCountOverride(threads);
      EfesEngine engine = MakeDefaultEngine();
      RunOptions options;
      options.profile.chunk_rows = chunk_rows;
      auto result = engine.Run(fuzzed->scenario, options);
      ASSERT_TRUE(result.ok()) << result.status();
      reports.push_back(EstimationResultToJson(*result));
    }
  }
  SetThreadCountOverride(0);
  ASSERT_EQ(reports.size(), 6u);
  EXPECT_NE(reports[0].find("\"dedup\""), std::string::npos);
  for (size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[0], reports[i]) << "run " << i;
  }

  ProfileCache cache;
  for (int pass = 0; pass < 2; ++pass) {
    EfesEngine engine = MakeDefaultEngine();
    RunOptions options;
    options.cache = &cache;
    auto result = engine.Run(fuzzed->scenario, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(reports[0], EstimationResultToJson(*result))
        << (pass == 0 ? "cold" : "warm") << " cache";
  }
}

TEST(ParallelDeterminismTest, ParallelItemCountersMatchAcrossThreadCounts) {
  // parallel.batches and parallel.items count work, not its scheduling:
  // the same at every thread count, also with a streaming block size far
  // below the columns' length.
  IntegrationScenario scenario = MakeScenario();
  std::vector<std::pair<uint64_t, uint64_t>> batch_items;
  for (size_t chunk_rows : {ProfileOptions().chunk_rows, size_t{7}}) {
    for (size_t threads : kThreadCounts) {
      SetThreadCountOverride(threads);
      MetricsRegistry::Global().Reset();
      EfesEngine engine = MakeDefaultEngine();
      RunOptions options;
      options.profile.chunk_rows = chunk_rows;
      auto reports = engine.AssessComplexity(scenario, options);
      ASSERT_TRUE(reports.ok()) << reports.status();
      MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
      batch_items.emplace_back(snapshot.CounterValue("parallel.batches"),
                               snapshot.CounterValue("parallel.items"));
    }
  }
  SetThreadCountOverride(0);
  ASSERT_EQ(batch_items.size(), 6u);
  for (size_t i = 1; i < batch_items.size(); ++i) {
    EXPECT_EQ(batch_items[0], batch_items[i]) << "run " << i;
  }
}

TEST(ParallelDeterminismTest, FailingBatchIsThreadCountInvariant) {
  // An exact 20,000-byte budget fails the paper example's value
  // profiling batch. Every index of a failing batch still runs, so the
  // profiles computed, the work counted and the cache filled match too,
  // not only the report.
  auto scenario = MakePaperExample();
  ASSERT_TRUE(scenario.ok());
  const std::string path = TestScratchPath("efes_failing_batch_cache");
  struct Outcome {
    std::string json;
    std::vector<uint64_t> counters;
    size_t entries = 0;
    std::string snapshot;
  };
  std::vector<Outcome> outcomes;
  for (size_t threads : kThreadCounts) {
    SetThreadCountOverride(threads);
    ProfileCache cache;
    RunOptions options;
    options.cache = &cache;
    options.profile.mode = ApproximationMode::kExact;
    options.profile.max_memory_bytes = 20000;
    const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
    EfesEngine engine = MakeDefaultEngine();
    auto result = engine.Run(*scenario, options);
    ASSERT_TRUE(result.ok()) << result.status();
    const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
    Outcome outcome;
    outcome.json = EstimationResultToJson(*result);
    for (const char* name :
         {"profiling.statistics.columns", "profiling.statistics.cells",
          "parallel.batches", "parallel.items"}) {
      outcome.counters.push_back(after.CounterValue(name) -
                                 before.CounterValue(name));
    }
    outcome.entries = cache.entry_count();
    ASSERT_TRUE(cache.SaveToFile(path).ok());
    auto saved = ReadFileToString(path);
    ASSERT_TRUE(saved.ok()) << saved.status();
    outcome.snapshot = *std::move(saved);
    outcomes.push_back(std::move(outcome));
  }
  SetThreadCountOverride(0);
  std::filesystem::remove(path);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_NE(outcomes[0].json.find("\"degraded\":true"), std::string::npos);
  for (size_t i = 1; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[0].json, outcomes[i].json) << "run " << i;
    EXPECT_EQ(outcomes[0].counters, outcomes[i].counters) << "run " << i;
    EXPECT_EQ(outcomes[0].entries, outcomes[i].entries) << "run " << i;
    EXPECT_EQ(outcomes[0].snapshot, outcomes[i].snapshot) << "run " << i;
  }
}

TEST(ParallelDeterminismTest, MultiFireTaskFaultIsThreadCountInvariant) {
  // parallel.task:n=5,count=3 fires at the 5th, 6th and 7th task. Every
  // index of a failing batch runs, so the same batch takes all three
  // fires, and the same modules fail, at every thread count.
  auto fuzzed = FuzzScenario(1);
  ASSERT_TRUE(fuzzed.ok()) << fuzzed.status();
  std::vector<std::string> reports;
  for (size_t threads : kThreadCounts) {
    SetThreadCountOverride(threads);
    FaultRegistry::Global().DisarmAll();
    ASSERT_TRUE(FaultRegistry::Global()
                    .ArmFromString("parallel.task:n=5,count=3")
                    .ok());
    EfesEngine engine = MakeDefaultEngine();
    auto result = engine.Run(fuzzed->scenario);
    FaultRegistry::Global().DisarmAll();
    ASSERT_TRUE(result.ok()) << result.status();
    reports.push_back(EstimationResultToJson(*result));
  }
  SetThreadCountOverride(0);
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_NE(reports[0].find("\"degraded\":true"), std::string::npos);
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_EQ(reports[0], reports[2]);
}

TEST(ParallelDeterminismTest, StructureConflictsAreThreadCountInvariant) {
  // Three sources, each with the paper example's conflicts drawn from a
  // different seed: the per-source fan-out must merge in source order
  // and count the same violations at any thread count.
  auto scenario = MakePaperExample();
  ASSERT_TRUE(scenario.ok());
  for (uint64_t seed : {7u, 99u}) {
    PaperExampleOptions options;
    options.seed = seed;
    auto other = MakePaperExample(options);
    ASSERT_TRUE(other.ok());
    scenario->sources.push_back(std::move(other->sources[0]));
  }
  ASSERT_EQ(scenario->sources.size(), 3u);
  ConflictDetectorOptions options;
  options.detect_cross_source_conflicts = true;
  std::vector<std::string> runs;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SetThreadCountOverride(threads);
    CsgGraph graph;
    auto assessments = DetectStructureConflicts(*scenario, &graph, options);
    ASSERT_TRUE(assessments.ok()) << assessments.status();
    std::string rendered;
    for (const SourceStructureAssessment& source : *assessments) {
      rendered += "source " + source.source_database + "\n";
      for (const StructureConflict& conflict : source.conflicts) {
        rendered += conflict.target_constraint + " | " +
                    std::string(StructuralConflictKindToString(conflict.kind)) +
                    " | " + conflict.inferred.ToString() + " | " +
                    conflict.source_path + " | " +
                    std::to_string(conflict.violation_count) + "\n";
      }
    }
    runs.push_back(std::move(rendered));
  }
  SetThreadCountOverride(0);
  EXPECT_NE(runs[0].find("Multiple attribute values"), std::string::npos);
  EXPECT_EQ(runs[0], runs[1]);
}

}  // namespace
}  // namespace efes
