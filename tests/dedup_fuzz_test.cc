// Property tests for the seeded scenario fuzzer (scenario/fuzzer.h)
// driving the dedup module: every seed in 1..100 runs cleanly through
// the default engine, the injected duplicate clusters are recovered at
// recall >= 0.8 in aggregate, and the full output (report text, JSON
// export, provenance tree) is byte-identical across thread counts and
// cache states.

#include "efes/scenario/fuzzer.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "efes/cache/profile_cache.h"
#include "efes/common/json_writer.h"
#include "efes/common/parallel.h"
#include "efes/dedup/dedup_module.h"
#include "efes/experiment/default_pipeline.h"
#include "efes/experiment/json_export.h"
#include "efes/provenance/provenance.h"
#include "efes/provenance/render.h"

namespace efes {
namespace {

class DedupFuzzTest : public ::testing::Test {
 protected:
  void TearDown() override { SetThreadCountOverride(0); }
};

const DedupComplexityReport* FindDedupReport(const EstimationResult& result) {
  for (const ModuleRun& run : result.module_runs) {
    if (run.module != "dedup" || run.report == nullptr) continue;
    return dynamic_cast<const DedupComplexityReport*>(run.report.get());
  }
  return nullptr;
}

// ----------------------------------------------------- option validation

TEST_F(DedupFuzzTest, OptionsValidateRejectsInvertedRangesAndBadRates) {
  FuzzOptions inverted;
  inverted.min_entities = 50;
  inverted.max_entities = 10;
  EXPECT_EQ(inverted.Validate().code(), StatusCode::kInvalidArgument);

  FuzzOptions negative_rate;
  negative_rate.duplicate_entity_rate = -0.1;
  EXPECT_EQ(negative_rate.Validate().code(), StatusCode::kInvalidArgument);

  FuzzOptions rate_above_one;
  rate_above_one.key_dirt_rate = 1.5;
  EXPECT_EQ(rate_above_one.Validate().code(), StatusCode::kInvalidArgument);

  FuzzOptions too_few_sources;
  too_few_sources.min_sources = 1;
  EXPECT_EQ(too_few_sources.Validate().code(), StatusCode::kInvalidArgument);

  EXPECT_TRUE(FuzzOptions().Validate().ok());
}

// -------------------------------------------------- generator properties

TEST_F(DedupFuzzTest, SameSeedReproducesTheSameScenario) {
  auto first = FuzzScenario(42);
  auto second = FuzzScenario(42);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();

  EXPECT_EQ(first->scenario.name, second->scenario.name);
  ASSERT_EQ(first->scenario.sources.size(), second->scenario.sources.size());
  for (size_t i = 0; i < first->scenario.sources.size(); ++i) {
    EXPECT_EQ(first->scenario.sources[i].database.TotalRowCount(),
              second->scenario.sources[i].database.TotalRowCount());
  }
  ASSERT_EQ(first->injected_clusters.size(), second->injected_clusters.size());
  for (size_t i = 0; i < first->injected_clusters.size(); ++i) {
    EXPECT_EQ(first->injected_clusters[i].key,
              second->injected_clusters[i].key);
    EXPECT_EQ(first->injected_clusters[i].occurrences,
              second->injected_clusters[i].occurrences);
  }
  EXPECT_EQ(first->injected_nulls, second->injected_nulls);
}

TEST_F(DedupFuzzTest, DifferentSeedsProduceDifferentScenarios) {
  auto a = FuzzScenario(1);
  auto b = FuzzScenario(2);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  // Names always differ; the data should too (row counts or clusters).
  EXPECT_NE(a->scenario.name, b->scenario.name);
  size_t rows_a = 0;
  size_t rows_b = 0;
  for (const SourceBinding& s : a->scenario.sources) {
    rows_a += s.database.TotalRowCount();
  }
  for (const SourceBinding& s : b->scenario.sources) {
    rows_b += s.database.TotalRowCount();
  }
  EXPECT_TRUE(rows_a != rows_b ||
              a->injected_clusters.size() != b->injected_clusters.size());
}

TEST_F(DedupFuzzTest, GeneratedScenariosSatisfyTheirOwnConstraints) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    auto fuzzed = FuzzScenario(seed);
    ASSERT_TRUE(fuzzed.ok()) << "seed " << seed << ": " << fuzzed.status();
    EXPECT_TRUE(fuzzed->scenario.Validate().ok()) << "seed " << seed;
    for (const SourceBinding& source : fuzzed->scenario.sources) {
      EXPECT_TRUE(source.database.SatisfiesConstraints()) << "seed " << seed;
    }
    for (const InjectedCluster& cluster : fuzzed->injected_clusters) {
      EXPECT_GE(cluster.occurrences, 2u) << "seed " << seed;
      EXPECT_EQ(cluster.key, NormalizeEntityKey(cluster.key))
          << "seed " << seed << ": injected keys are stored normalized";
    }
  }
}

TEST_F(DedupFuzzTest, RecallIsOneWhenNothingIsInjected) {
  FuzzOptions options;
  options.duplicate_entity_rate = 0.0;
  auto fuzzed = FuzzScenario(5, options);
  ASSERT_TRUE(fuzzed.ok()) << fuzzed.status();
  EXPECT_TRUE(fuzzed->injected_clusters.empty());
  DedupComplexityReport empty_report({});
  EXPECT_DOUBLE_EQ(InjectedClusterRecall(*fuzzed, empty_report), 1.0);
}

// ------------------------------------------- the 100-seed recall property

TEST_F(DedupFuzzTest, HundredSeedsRunCleanlyWithAggregateRecallFloor) {
  EfesEngine engine = MakeDefaultEngine();
  size_t recovered = 0;
  size_t injected = 0;
  size_t seeds_with_injection = 0;
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    auto fuzzed = FuzzScenario(seed);
    ASSERT_TRUE(fuzzed.ok()) << "seed " << seed << ": " << fuzzed.status();
    auto result = engine.Run(fuzzed->scenario);
    ASSERT_TRUE(result.ok()) << "seed " << seed << ": " << result.status();
    EXPECT_FALSE(result->degraded) << "seed " << seed;
    for (const ModuleRun& run : result->module_runs) {
      EXPECT_TRUE(run.ok()) << "seed " << seed << " module " << run.module
                            << ": " << run.status;
    }
    const DedupComplexityReport* report = FindDedupReport(*result);
    ASSERT_NE(report, nullptr) << "seed " << seed;
    if (fuzzed->injected_clusters.empty()) continue;
    ++seeds_with_injection;
    double recall = InjectedClusterRecall(*fuzzed, *report);
    size_t total = fuzzed->injected_clusters.size();
    injected += total;
    recovered += static_cast<size_t>(recall * static_cast<double>(total) +
                                     0.5);
  }
  // The fuzzer injects duplicates at rate 0.2 over 24..80 entities, so
  // a hundred seeds cannot plausibly all come up empty.
  ASSERT_GT(seeds_with_injection, 50u);
  ASSERT_GT(injected, 0u);
  double aggregate_recall =
      static_cast<double>(recovered) / static_cast<double>(injected);
  EXPECT_GE(aggregate_recall, 0.8)
      << "recovered " << recovered << " of " << injected
      << " injected clusters";
}

// --------------------------------- byte-identity across threads × caches

struct FuzzRunOutput {
  std::string report_text;
  std::string json;
  std::string tree;
};

FuzzRunOutput RunSeedWithProvenance(uint64_t seed, ProfileCache* cache) {
  auto fuzzed = FuzzScenario(seed);
  EXPECT_TRUE(fuzzed.ok()) << fuzzed.status();
  ProvenanceRecorder recorder;
  EstimationResult result;
  {
    EfesEngine engine = MakeDefaultEngine();
    RunOptions options;
    options.cache = cache;
    options.recorder = &recorder;
    auto run = engine.Run(fuzzed->scenario, options);
    EXPECT_TRUE(run.ok()) << run.status();
    result = std::move(*run);
  }
  FuzzRunOutput out;
  for (const ModuleRun& run : result.module_runs) {
    if (run.report != nullptr) out.report_text += run.report->ToText();
  }
  ProvenanceSnapshot snapshot = recorder.Snapshot();
  out.json = EstimationResultToJson(result, nullptr, &snapshot);
  auto tree = RenderProvenanceTree(snapshot);
  EXPECT_TRUE(tree.ok()) << tree.status();
  if (tree.ok()) out.tree = std::move(*tree);
  return out;
}

TEST_F(DedupFuzzTest, OutputIsByteIdenticalAcrossThreadsAndCacheStates) {
  for (uint64_t seed : {3u, 11u, 27u}) {
    // Baseline: default threads, no cache.
    FuzzRunOutput baseline = RunSeedWithProvenance(seed, nullptr);
    ASSERT_FALSE(baseline.json.empty());
    EXPECT_NE(baseline.json.find("\"dedup\""), std::string::npos)
        << "seed " << seed;

    for (size_t threads : {1, 4, 8}) {
      SetThreadCountOverride(threads);
      FuzzRunOutput variant = RunSeedWithProvenance(seed, nullptr);
      EXPECT_EQ(baseline.report_text, variant.report_text)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(baseline.json, variant.json)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(baseline.tree, variant.tree)
          << "seed " << seed << " threads " << threads;
    }
    SetThreadCountOverride(0);

    ProfileCache cache;
    FuzzRunOutput cold = RunSeedWithProvenance(seed, &cache);
    FuzzRunOutput warm = RunSeedWithProvenance(seed, &cache);
    EXPECT_EQ(baseline.json, cold.json) << "seed " << seed << " cold cache";
    EXPECT_EQ(baseline.json, warm.json) << "seed " << seed << " warm cache";
    EXPECT_EQ(baseline.tree, cold.tree) << "seed " << seed << " cold cache";
    EXPECT_EQ(baseline.tree, warm.tree) << "seed " << seed << " warm cache";
  }
}

// ------------------------------------------------ dedup tasks in exports

TEST_F(DedupFuzzTest, DedupTasksSurfaceInJsonExportAndTotals) {
  // Seed 1 is known (and pinned by data/fuzz_corpus.txt) to inject
  // clusters; any regression that stops surfacing dedup tasks fails here.
  auto fuzzed = FuzzScenario(1);
  ASSERT_TRUE(fuzzed.ok()) << fuzzed.status();
  ASSERT_FALSE(fuzzed->injected_clusters.empty());

  EfesEngine engine = MakeDefaultEngine();
  auto result = engine.Run(fuzzed->scenario);
  ASSERT_TRUE(result.ok()) << result.status();

  bool has_dedup_task = false;
  for (const TaskEstimate& estimate : result->estimate.tasks) {
    if (estimate.task.category == TaskCategory::kDeduplication) {
      has_dedup_task = true;
      EXPECT_GT(estimate.minutes, 0.0);
    }
  }
  EXPECT_TRUE(has_dedup_task);

  std::string json = EstimationResultToJson(*result);
  EXPECT_NE(json.find("\"deduplication\""), std::string::npos);
  EXPECT_NE(json.find("Resolve duplicate clusters"), std::string::npos);
}

}  // namespace
}  // namespace efes
