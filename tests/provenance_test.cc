// Tests for the estimate-provenance layer: recorder/fragment id
// assignment, per-run recording through RunOptions::recorder, byte-identical
// --explain output across thread counts and cache states, the property
// that every reported effort number resolves to at least one provenance
// node, and graceful degradation at the `provenance.record` /
// `provenance.export` fault points.

#include "efes/provenance/provenance.h"

#include <gtest/gtest.h>

#include <map>
#include <queue>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "efes/common/fault.h"
#include "efes/common/json_writer.h"
#include "efes/common/parallel.h"
#include "efes/experiment/default_pipeline.h"
#include "efes/cache/profile_cache.h"
#include "efes/provenance/render.h"
#include "efes/scenario/bibliographic.h"
#include "efes/scenario/fuzzer.h"

namespace efes {
namespace {

class ProvenanceTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().DisarmAll(); }
  void TearDown() override {
    FaultRegistry::Global().DisarmAll();
    SetThreadCountOverride(0);
  }
};

// ------------------------------------------------------ recorder basics

TEST_F(ProvenanceTest, RecordAssignsOneBasedIdsInOrder) {
  ProvenanceRecorder recorder;
  uint64_t a = recorder.Record(ProvenanceKind::kStatistic,
                               "statistic source.rows", "freedb:albums");
  uint64_t b = recorder.RecordValue(ProvenanceKind::kThreshold,
                                    "threshold fit_cutoff", "", 0.9);
  uint64_t c = recorder.RecordValue(ProvenanceKind::kFinding, "finding", "x",
                                    2.0, {a, b, 0});  // 0 = unset, dropped
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(c, 3u);

  ProvenanceSnapshot snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.nodes.size(), 3u);
  EXPECT_FALSE(snapshot.degraded);
  EXPECT_EQ(snapshot.nodes[0].id, 1u);
  EXPECT_FALSE(snapshot.nodes[0].has_value);
  EXPECT_TRUE(snapshot.nodes[1].has_value);
  EXPECT_DOUBLE_EQ(snapshot.nodes[1].value, 0.9);
  // The sentinel 0 input was dropped; real inputs kept in order.
  EXPECT_EQ(snapshot.nodes[2].inputs, (std::vector<uint64_t>{a, b}));
}

TEST_F(ProvenanceTest, SetRefAttachesLookupHandle) {
  ProvenanceRecorder recorder;
  uint64_t id = recorder.Record(ProvenanceKind::kTask, "task", "t");
  recorder.SetRef(id, "t7");
  ProvenanceSnapshot snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.nodes.size(), 1u);
  EXPECT_EQ(snapshot.nodes[0].ref, "t7");
}

TEST_F(ProvenanceTest, AbsorbRemapsLocalInputsToGlobalIds) {
  ProvenanceRecorder recorder;
  uint64_t threshold = recorder.RecordValue(ProvenanceKind::kThreshold,
                                            "threshold", "", 0.9);
  ProvenanceFragment fragment;
  size_t stat = fragment.AddValue(ProvenanceKind::kStatistic, "statistic",
                                  "col", 0.25);
  size_t finding = fragment.Add(ProvenanceKind::kFinding, "finding", "col",
                                /*inputs=*/{threshold},
                                /*local_inputs=*/{stat});
  EXPECT_EQ(fragment.size(), 2u);

  std::vector<uint64_t> ids = recorder.Absorb(fragment);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[stat], 2u);
  EXPECT_EQ(ids[finding], 3u);

  ProvenanceSnapshot snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.nodes.size(), 3u);
  // Global input (the threshold) first, then the remapped local input.
  EXPECT_EQ(snapshot.nodes[2].inputs,
            (std::vector<uint64_t>{threshold, ids[stat]}));
}

// ------------------------------------------------ end-to-end determinism

IntegrationScenario MakeScenario() {
  BiblioOptions options;
  options.publication_count = 120;
  options.missing_venue_rate = 0.15;
  options.sloppy_year_rate = 0.2;
  auto scenario =
      MakeBiblioScenario(BiblioSchemaId::kS1, BiblioSchemaId::kS2, options);
  EXPECT_TRUE(scenario.ok());
  return std::move(*scenario);
}

TEST_F(ProvenanceTest, ActiveIsNullUnlessScopedRecorderInstalled) {
  // Recording is per run: a run given no recorder records nothing, and a
  // run given one records into it alone, whatever other recorders exist.
  const IntegrationScenario scenario = MakeScenario();
  const EfesEngine engine = MakeDefaultEngine();
  ProvenanceRecorder bystander;
  auto unrecorded = engine.Run(scenario);
  ASSERT_TRUE(unrecorded.ok()) << unrecorded.status();
  for (const ModuleRun& run : unrecorded->module_runs) {
    ASSERT_NE(run.report, nullptr) << run.module;
    EXPECT_EQ(run.report->provenance_node(), 0u) << run.module;
  }
  ProvenanceRecorder recorder;
  RunOptions options;
  options.recorder = &recorder;
  auto recorded = engine.Run(scenario, options);
  ASSERT_TRUE(recorded.ok()) << recorded.status();
  for (const ModuleRun& run : recorded->module_runs) {
    ASSERT_NE(run.report, nullptr) << run.module;
    EXPECT_NE(run.report->provenance_node(), 0u) << run.module;
  }
  EXPECT_FALSE(recorder.Snapshot().nodes.empty());
  EXPECT_TRUE(bystander.Snapshot().nodes.empty());
}

/// One recorded run: gives a recorder to a run of the default engine, and
/// returns {explain tree, provenance JSON, estimation result}.
struct RecordedRun {
  std::string tree;
  std::string json;
  EstimationResult result;
  ProvenanceSnapshot snapshot;
};

RecordedRun RunWithProvenance(const IntegrationScenario& scenario,
                              ProfileCache* cache = nullptr) {
  ProvenanceRecorder recorder;
  EstimationResult result;
  {
    EfesEngine engine = MakeDefaultEngine();
    RunOptions options;
    options.cache = cache;
    options.recorder = &recorder;
    auto run = engine.Run(scenario, options);
    EXPECT_TRUE(run.ok()) << run.status();
    result = std::move(*run);
  }
  RecordedRun out;
  out.snapshot = recorder.Snapshot();
  auto tree = RenderProvenanceTree(out.snapshot);
  EXPECT_TRUE(tree.ok()) << tree.status();
  out.tree = std::move(*tree);
  JsonWriter json;
  WriteProvenanceJson(out.snapshot, json);
  out.json = json.ToString();
  out.result = std::move(result);
  return out;
}

TEST_F(ProvenanceTest, ExplainIsByteIdenticalAcrossThreadCounts) {
  IntegrationScenario scenario = MakeScenario();
  std::vector<RecordedRun> runs;
  for (size_t threads : {1, 4, 8}) {
    SetThreadCountOverride(threads);
    runs.push_back(RunWithProvenance(scenario));
  }
  SetThreadCountOverride(0);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_FALSE(runs[0].tree.empty());
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[0].tree, runs[i].tree) << "thread variant " << i;
    EXPECT_EQ(runs[0].json, runs[i].json) << "thread variant " << i;
  }
}

TEST_F(ProvenanceTest, ExplainIsByteIdenticalAcrossCacheStates) {
  IntegrationScenario scenario = MakeScenario();
  RecordedRun uncached = RunWithProvenance(scenario);
  ProfileCache cache;
  RecordedRun cold = RunWithProvenance(scenario, &cache);
  RecordedRun warm = RunWithProvenance(scenario, &cache);
  EXPECT_EQ(uncached.tree, cold.tree);
  EXPECT_EQ(uncached.tree, warm.tree);
  EXPECT_EQ(uncached.json, cold.json);
  EXPECT_EQ(uncached.json, warm.json);
}

TEST_F(ProvenanceTest, FuzzedDedupExplainIsByteIdenticalAcrossThreads) {
  // Seed 1 injects duplicate clusters, so the provenance DAG contains
  // dedup evidence (key statistics, thresholds, cluster findings); the
  // rendered tree must still not depend on the thread count.
  auto fuzzed = FuzzScenario(1);
  ASSERT_TRUE(fuzzed.ok()) << fuzzed.status();
  std::vector<RecordedRun> runs;
  for (size_t threads : {1, 4, 8}) {
    SetThreadCountOverride(threads);
    runs.push_back(RunWithProvenance(fuzzed->scenario));
  }
  SetThreadCountOverride(0);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_NE(runs[0].tree.find("dedup assessment"), std::string::npos);
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[0].tree, runs[i].tree) << "thread variant " << i;
    EXPECT_EQ(runs[0].json, runs[i].json) << "thread variant " << i;
  }

  // Every dedup task's provenance chain terminates in its finding node.
  bool saw_dedup_task = false;
  for (const TaskEstimate& estimate : runs[0].result.estimate.tasks) {
    if (estimate.task.category != TaskCategory::kDeduplication) continue;
    saw_dedup_task = true;
    EXPECT_FALSE(estimate.task.provenance.empty());
  }
  EXPECT_TRUE(saw_dedup_task);
}

// ------------------------------------------------- traceability property

TEST_F(ProvenanceTest, EveryEffortNumberResolvesToProvenance) {
  IntegrationScenario scenario = MakeScenario();
  RecordedRun run = RunWithProvenance(scenario);
  const ProvenanceSnapshot& snapshot = run.snapshot;
  ASSERT_FALSE(snapshot.nodes.empty());

  std::map<uint64_t, const ProvenanceNode*> by_id;
  for (const ProvenanceNode& node : snapshot.nodes) by_id[node.id] = &node;

  // Every planned task's minutes appear as a kTaskEffort node value, and
  // each of those nodes resolves (transitively) to at least one evidence
  // leaf: a statistic, constraint, correspondence, threshold, parameter,
  // or detector finding.
  std::vector<const ProvenanceNode*> task_efforts;
  const ProvenanceNode* total = nullptr;
  for (const ProvenanceNode& node : snapshot.nodes) {
    if (node.kind == ProvenanceKind::kTaskEffort) task_efforts.push_back(&node);
    if (node.kind == ProvenanceKind::kTotalEffort) total = &node;
  }
  ASSERT_FALSE(run.result.estimate.tasks.empty());
  ASSERT_EQ(task_efforts.size(), run.result.estimate.tasks.size());
  for (size_t i = 0; i < run.result.estimate.tasks.size(); ++i) {
    EXPECT_TRUE(task_efforts[i]->has_value);
    EXPECT_DOUBLE_EQ(task_efforts[i]->value,
                     run.result.estimate.tasks[i].minutes)
        << "task " << i;
  }

  for (const ProvenanceNode* effort : task_efforts) {
    ASSERT_FALSE(effort->inputs.empty()) << "task-effort node " << effort->id;
    bool reached_evidence = false;
    std::set<uint64_t> seen;
    std::queue<uint64_t> frontier;
    for (uint64_t input : effort->inputs) frontier.push(input);
    while (!frontier.empty()) {
      uint64_t id = frontier.front();
      frontier.pop();
      if (!seen.insert(id).second) continue;
      auto it = by_id.find(id);
      ASSERT_NE(it, by_id.end()) << "dangling input id " << id;
      switch (it->second->kind) {
        case ProvenanceKind::kStatistic:
        case ProvenanceKind::kConstraint:
        case ProvenanceKind::kCorrespondence:
        case ProvenanceKind::kThreshold:
        case ProvenanceKind::kParameter:
        case ProvenanceKind::kFinding:
          reached_evidence = true;
          break;
        default:
          break;
      }
      for (uint64_t input : it->second->inputs) frontier.push(input);
    }
    EXPECT_TRUE(reached_evidence)
        << "task-effort node " << effort->id << " resolves to no evidence";
  }

  // The bottom line is itself a node whose value matches the estimate.
  ASSERT_NE(total, nullptr);
  EXPECT_TRUE(total->has_value);
  EXPECT_DOUBLE_EQ(total->value, run.result.estimate.TotalMinutes());
}

TEST_F(ProvenanceTest, TaskFilterSelectsOneTaskAndRejectsUnknownIds) {
  IntegrationScenario scenario = MakeScenario();
  RecordedRun run = RunWithProvenance(scenario);

  auto by_ref = RenderProvenanceTree(run.snapshot, "t1");
  ASSERT_TRUE(by_ref.ok()) << by_ref.status();
  auto by_number = RenderProvenanceTree(run.snapshot, "1");
  ASSERT_TRUE(by_number.ok()) << by_number.status();
  EXPECT_EQ(*by_ref, *by_number);
  // The filtered tree is a strict subset of the run's provenance.
  EXPECT_LT(by_ref->size(), run.tree.size());

  auto unknown = RenderProvenanceTree(run.snapshot, "999");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------- fault containment

TEST_F(ProvenanceTest, RecordFaultLatchesDegradedAndReturnsZeroIds) {
  ASSERT_TRUE(
      FaultRegistry::Global().ArmFromString("provenance.record:once").ok());
  ProvenanceRecorder recorder;
  EXPECT_EQ(recorder.Record(ProvenanceKind::kStatistic, "s", ""), 0u);
  // Degradation latches: later records also return the sentinel even
  // though the fault fired only once.
  EXPECT_EQ(recorder.Record(ProvenanceKind::kStatistic, "s2", ""), 0u);
  ProvenanceFragment fragment;
  fragment.Add(ProvenanceKind::kFinding, "f", "");
  std::vector<uint64_t> ids = recorder.Absorb(fragment);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], 0u);
  EXPECT_TRUE(recorder.degraded());

  ProvenanceSnapshot snapshot = recorder.Snapshot();
  EXPECT_TRUE(snapshot.degraded);
  auto tree = RenderProvenanceTree(snapshot);
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kUnavailable);
  JsonWriter json;
  WriteProvenanceJson(snapshot, json);
  EXPECT_EQ(json.ToString(), "{\"degraded\":true}");
}

TEST_F(ProvenanceTest, ExportFaultDegradesRenderersNotTheRun) {
  ProvenanceRecorder recorder;
  recorder.RecordValue(ProvenanceKind::kTotalEffort, "total effort", "", 5.0);
  ProvenanceSnapshot snapshot = recorder.Snapshot();
  ASSERT_FALSE(snapshot.degraded);

  ASSERT_TRUE(
      FaultRegistry::Global().ArmFromString("provenance.export").ok());
  auto tree = RenderProvenanceTree(snapshot);
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kUnavailable);
  JsonWriter json;
  WriteProvenanceJson(snapshot, json);
  EXPECT_EQ(json.ToString(), "{\"degraded\":true}");

  FaultRegistry::Global().DisarmAll();
  auto healthy = RenderProvenanceTree(snapshot);
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  EXPECT_NE(healthy->find("total effort"), std::string::npos);
}

}  // namespace
}  // namespace efes
