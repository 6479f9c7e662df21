// End-to-end determinism of the parallel pipeline: running the same
// estimation with 1, 2, and 8 threads must produce byte-identical JSON
// reports and identical scheduling-independent telemetry counters.
// Only metrics under the `parallel.pool.` prefix (and the timing
// histograms) may differ between runs — they describe how the work was
// distributed, not what was computed.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

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
    std::vector<std::string> rendered;
    for (const DiscoveredConstraint& d :
         DiscoverConstraints(database, DiscoveryOptions{})) {
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
  // thread count, on how each column is cut into chunks inside the
  // modules' profiling batches, or on whether profiling statistics come
  // from a cache.
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
  IntegrationScenario scenario = MakeScenario();
  std::vector<std::pair<uint64_t, uint64_t>> batch_items;
  for (size_t threads : kThreadCounts) {
    SetThreadCountOverride(threads);
    MetricsRegistry::Global().Reset();
    EfesEngine engine = MakeDefaultEngine();
    auto reports = engine.AssessComplexity(scenario);
    ASSERT_TRUE(reports.ok()) << reports.status();
    MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
    batch_items.emplace_back(snapshot.CounterValue("parallel.batches"),
                             snapshot.CounterValue("parallel.items"));
  }
  SetThreadCountOverride(0);
  EXPECT_EQ(batch_items[0], batch_items[1]);
  EXPECT_EQ(batch_items[0], batch_items[2]);
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
