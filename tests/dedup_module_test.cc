// Unit tests of the deduplication estimation module: blocking-key
// selection, cluster formation and pair math, task pricing, config
// validation, provenance linkage, and fault containment.

#include "efes/dedup/dedup_module.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "efes/common/fault.h"
#include "efes/core/effort_config.h"
#include "efes/core/effort_model.h"
#include "efes/experiment/default_pipeline.h"
#include "efes/profiling/profiler.h"
#include "efes/provenance/provenance.h"
#include "efes/scenario/fuzzer.h"
#include "efes/telemetry/trace.h"

namespace efes {
namespace {

Database MustCreate(Schema schema) {
  auto database = Database::Create(std::move(schema));
  EXPECT_TRUE(database.ok()) << database.status();
  return std::move(*database);
}

void MustAppend(Database& database, std::string_view relation,
                std::vector<Value> row) {
  auto table = database.mutable_table(relation);
  ASSERT_TRUE(table.ok()) << table.status();
  Status appended = (*table)->AppendRow(std::move(row));
  ASSERT_TRUE(appended.ok()) << appended;
}

Schema PersonSchema(const std::string& name, const std::string& relation) {
  Schema schema(name);
  Status added = schema.AddRelation(
      RelationDef(relation, {{"id", DataType::kInteger},
                             {"name", DataType::kText},
                             {"city", DataType::kText}}));
  EXPECT_TRUE(added.ok()) << added;
  schema.AddConstraint(Constraint::PrimaryKey(relation, {"id"}));
  return schema;
}

CorrespondenceSet PersonCorrespondences(const std::string& relation) {
  CorrespondenceSet correspondences;
  correspondences.AddAttribute(relation, "id", "person", "id");
  correspondences.AddAttribute(relation, "name", "person", "name");
  correspondences.AddAttribute(relation, "city", "person", "city");
  return correspondences;
}

/// Two sources sharing two entities ("Ada Lovelace", "Alan Turing", the
/// names dirtied in source 2) plus unique filler rows. The surrogate ids
/// collide across sources on purpose — the blocking key must skip them.
IntegrationScenario MakeTwoSourceScenario() {
  IntegrationScenario scenario("dedup_unit",
                               MustCreate(PersonSchema("target", "person")));

  Database s1 = MustCreate(PersonSchema("s1", "people_a"));
  MustAppend(s1, "people_a",
             {Value::Integer(1), Value::Text("Ada Lovelace"),
              Value::Text("london")});
  MustAppend(s1, "people_a",
             {Value::Integer(2), Value::Text("Alan Turing"),
              Value::Text("london")});
  MustAppend(s1, "people_a",
             {Value::Integer(3), Value::Text("Grace Hopper"),
              Value::Text("new york")});
  scenario.AddSource(std::move(s1), PersonCorrespondences("people_a"));

  Database s2 = MustCreate(PersonSchema("s2", "people_b"));
  MustAppend(s2, "people_b",
             {Value::Integer(1), Value::Text("  ADA  Lovelace "),
              Value::Text("london")});
  MustAppend(s2, "people_b",
             {Value::Integer(2), Value::Text("alan turing"),
              Value::Text("london")});
  MustAppend(s2, "people_b",
             {Value::Integer(3), Value::Text("Edsger Dijkstra"),
              Value::Text("austin")});
  scenario.AddSource(std::move(s2), PersonCorrespondences("people_b"));
  return scenario;
}

const DedupComplexityReport& AsDedupReport(const ComplexityReport& report) {
  const auto* dedup = dynamic_cast<const DedupComplexityReport*>(&report);
  EXPECT_NE(dedup, nullptr);
  return *dedup;
}

TEST(NormalizeEntityKeyTest, LowercasesTrimsAndCollapsesWhitespace) {
  EXPECT_EQ(NormalizeEntityKey("  Alpha  CORP "), "alpha corp");
  EXPECT_EQ(NormalizeEntityKey("alpha corp"), "alpha corp");
  EXPECT_EQ(NormalizeEntityKey("\tA\n B\t"), "a b");
  EXPECT_EQ(NormalizeEntityKey("   "), "");
  EXPECT_EQ(NormalizeEntityKey(""), "");
}

TEST(DedupModuleTest, DetectsCrossSourceClustersViaTheNaturalKey) {
  IntegrationScenario scenario = MakeTwoSourceScenario();
  DedupModule module;
  auto report = module.AssessComplexity(scenario, RunContext{});
  ASSERT_TRUE(report.ok()) << report.status();
  const DedupComplexityReport& dedup = AsDedupReport(**report);
  ASSERT_EQ(dedup.findings().size(), 1u);
  const DuplicateClusterFinding& finding = dedup.findings()[0];
  EXPECT_EQ(finding.target_relation, "person");
  // The colliding surrogate ids (1, 2, 3 in both sources) are target-PK
  // attributes and must not be chosen as the blocking key.
  EXPECT_EQ(finding.blocking_key, "name");
  EXPECT_EQ(finding.cluster_count, 2u);
  EXPECT_EQ(finding.duplicate_records, 2u);   // one extra record per pair
  EXPECT_EQ(finding.verification_pairs, 2u);  // C(2,2) per cluster
  EXPECT_EQ(finding.max_cluster_size, 2u);
  ASSERT_EQ(finding.feeds.size(), 2u);
  EXPECT_EQ(finding.feeds[0], "s1:people_a");
  EXPECT_EQ(finding.feeds[1], "s2:people_b");
  // The normalized keys of the dirtied names.
  ASSERT_EQ(finding.clusters.size(), 2u);
  EXPECT_EQ(finding.clusters[0].key, "ada lovelace");
  EXPECT_EQ(finding.clusters[0].size, 2u);
  EXPECT_EQ(finding.clusters[0].pair_count, 1u);
  EXPECT_EQ(finding.clusters[1].key, "alan turing");
}

TEST(DedupModuleTest, SingleSourceScenarioHasNoFindings) {
  IntegrationScenario scenario("single",
                               MustCreate(PersonSchema("target", "person")));
  Database s1 = MustCreate(PersonSchema("s1", "people_a"));
  MustAppend(s1, "people_a",
             {Value::Integer(1), Value::Text("Ada Lovelace"),
              Value::Text("london")});
  MustAppend(s1, "people_a",
             {Value::Integer(2), Value::Text("Ada Lovelace"),
              Value::Text("london")});
  scenario.AddSource(std::move(s1), PersonCorrespondences("people_a"));
  DedupModule module;
  auto report = module.AssessComplexity(scenario, RunContext{});
  ASSERT_TRUE(report.ok()) << report.status();
  // Duplicates within one feed are that source's own UNIQUE problem, not
  // cross-source deduplication work.
  EXPECT_EQ(AsDedupReport(**report).findings().size(), 0u);
  EXPECT_EQ((*report)->ProblemCount(), 0u);
}

TEST(DedupModuleTest, OversizeBlocksAreSkippedNotPriced) {
  IntegrationScenario scenario = MakeTwoSourceScenario();
  DedupOptions options;
  options.max_block_size = 1;  // every cross-feed block (size 2) is over
  DedupModule module(options);
  auto report = module.AssessComplexity(scenario, RunContext{});
  ASSERT_TRUE(report.ok()) << report.status();
  // All candidate blocks oversize -> no clusters -> no finding at all.
  EXPECT_EQ(AsDedupReport(**report).findings().size(), 0u);
}

TEST(DedupModuleTest, InvalidOptionsAreRejectedNotClamped) {
  IntegrationScenario scenario = MakeTwoSourceScenario();
  DedupOptions negative_cost;
  negative_cost.pair_review_minutes = -0.5;
  auto rejected =
      DedupModule(negative_cost).AssessComplexity(scenario, RunContext{});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  DedupOptions zero_block;
  zero_block.max_block_size = 0;
  rejected = DedupModule(zero_block).AssessComplexity(scenario, RunContext{});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  DedupOptions bad_fraction;
  bad_fraction.min_key_fill = 1.5;
  rejected = DedupModule(bad_fraction).AssessComplexity(scenario, RunContext{});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST(DedupModuleTest, HighQualityPlansResolutionPricedPerClusterAndPair) {
  IntegrationScenario scenario = MakeTwoSourceScenario();
  DedupModule module;
  auto report = module.AssessComplexity(scenario, RunContext{});
  ASSERT_TRUE(report.ok()) << report.status();
  auto tasks = module.PlanTasks(**report, ExpectedQuality::kHighQuality,
                                ExecutionSettings{});
  ASSERT_TRUE(tasks.ok()) << tasks.status();
  ASSERT_EQ(tasks->size(), 1u);
  const Task& task = (*tasks)[0];
  EXPECT_EQ(task.type, TaskType::kResolveDuplicateClusters);
  EXPECT_EQ(task.category, TaskCategory::kDeduplication);
  EXPECT_EQ(task.subject, "person via name");
  EXPECT_EQ(task.Param(task_params::kClusters), 2.0);
  EXPECT_EQ(task.Param(task_params::kPairs), 2.0);
  // Table 9 extension default: 2 * #clusters + 0.5 * #pairs.
  EffortExplanation explained =
      EffortModel::PaperDefault().Explain(task, ExecutionSettings{});
  EXPECT_DOUBLE_EQ(explained.minutes, 2.0 * 2.0 + 0.5 * 2.0);
}

TEST(DedupModuleTest, LowEffortPlansOneDropScript) {
  IntegrationScenario scenario = MakeTwoSourceScenario();
  DedupModule module;
  auto report = module.AssessComplexity(scenario, RunContext{});
  ASSERT_TRUE(report.ok()) << report.status();
  auto tasks = module.PlanTasks(**report, ExpectedQuality::kLowEffort,
                                ExecutionSettings{});
  ASSERT_TRUE(tasks.ok()) << tasks.status();
  ASSERT_EQ(tasks->size(), 1u);
  EXPECT_EQ((*tasks)[0].type, TaskType::kDropDuplicateRecords);
  EffortExplanation explained =
      EffortModel::PaperDefault().Explain((*tasks)[0], ExecutionSettings{});
  EXPECT_DOUBLE_EQ(explained.minutes, 8.0);
}

TEST(DedupModuleTest, ForeignReportIsRejected) {
  class OtherReport : public ComplexityReport {
   public:
    std::string module_name() const override { return "other"; }
    std::string ToText() const override { return ""; }
    size_t ProblemCount() const override { return 0; }
  };
  OtherReport foreign;
  DedupModule module;
  auto tasks = module.PlanTasks(foreign, ExpectedQuality::kHighQuality,
                                ExecutionSettings{});
  ASSERT_FALSE(tasks.ok());
  EXPECT_EQ(tasks.status().code(), StatusCode::kInvalidArgument);
}

TEST(DedupModuleTest, ConfigSectionRepricesTheResolutionFunction) {
  auto config = ParseEffortConfig(
      "[dedup]\n"
      "pair_review_minutes = 1\n"
      "cluster_resolution_minutes = 4\n"
      "drop_script_minutes = 5\n");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_DOUBLE_EQ(config->dedup.pair_review_minutes, 1.0);
  Task resolve;
  resolve.type = TaskType::kResolveDuplicateClusters;
  resolve.parameters[task_params::kClusters] = 2.0;
  resolve.parameters[task_params::kPairs] = 10.0;
  EXPECT_DOUBLE_EQ(
      config->model.Explain(resolve, ExecutionSettings{}).minutes,
      4.0 * 2.0 + 1.0 * 10.0);
  Task drop;
  drop.type = TaskType::kDropDuplicateRecords;
  EXPECT_DOUBLE_EQ(config->model.Explain(drop, ExecutionSettings{}).minutes,
                   5.0);
}

TEST(DedupModuleTest, ConfigRejectsInvalidValuesWithInvalidArgument) {
  auto negative = ParseEffortConfig("[dedup]\npair_review_minutes = -1\n");
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);

  auto zero_block = ParseEffortConfig("[dedup]\nmax_block_size = 0\n");
  ASSERT_FALSE(zero_block.ok());
  EXPECT_EQ(zero_block.status().code(), StatusCode::kInvalidArgument);

  auto malformed = ParseEffortConfig("[dedup]\nmax_block_size = many\n");
  ASSERT_FALSE(malformed.ok());
  EXPECT_EQ(malformed.status().code(), StatusCode::kParseError);

  auto unknown = ParseEffortConfig("[dedup]\nno_such_knob = 1\n");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kParseError);
}

TEST(DedupModuleTest, SampledStatisticsStillBlockEveryRow) {
  FuzzOptions fuzz;
  fuzz.min_sources = fuzz.max_sources = 3;
  fuzz.min_entities = fuzz.max_entities = 400;
  auto fuzzed = FuzzScenario(7, fuzz);
  ASSERT_TRUE(fuzzed.ok()) << fuzzed.status();
  const IntegrationScenario& scenario = fuzzed->scenario;

  constexpr size_t kLimit = 40;
  DedupOptions sampling;
  sampling.sample_limit = kLimit;
  auto full = DedupModule().AssessComplexity(scenario, RunContext{});
  auto sampled = DedupModule(sampling).AssessComplexity(scenario, RunContext{});
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_TRUE(sampled.ok()) << sampled.status();
  const auto& expected = AsDedupReport(**full).findings();
  const auto& actual = AsDedupReport(**sampled).findings();
  ASSERT_FALSE(expected.empty());
  ASSERT_EQ(actual.size(), expected.size());

  for (size_t i = 0; i < expected.size(); ++i) {
    const DuplicateClusterFinding& f = actual[i];
    SCOPED_TRACE(f.target_relation);
    // Blocking scanned every row: the clusters are the unsampled ones.
    EXPECT_EQ(f.blocking_key, expected[i].blocking_key);
    EXPECT_EQ(f.feeds, expected[i].feeds);
    EXPECT_EQ(f.oversize_blocks, expected[i].oversize_blocks);
    EXPECT_EQ(f.verification_pairs, expected[i].verification_pairs);
    ASSERT_EQ(f.clusters.size(), expected[i].clusters.size());
    for (size_t c = 0; c < f.clusters.size(); ++c) {
      EXPECT_EQ(f.clusters[c].key, expected[i].clusters[c].key);
      EXPECT_EQ(f.clusters[c].size, expected[i].clusters[c].size);
    }

    // The key statistics came from each feed's kLimit-row sample.
    auto target_table = scenario.target.table(f.target_relation);
    ASSERT_TRUE(target_table.ok());
    auto attribute = (*target_table)->def().Attribute(f.blocking_key);
    ASSERT_TRUE(attribute.ok());
    ProfileMemo samples;
    double min_fill = 1.0;
    double min_uniqueness = 1.0;
    size_t feeds = 0;
    for (const SourceBinding& source : scenario.sources) {
      for (const Correspondence& corr : source.correspondences.all()) {
        if (!corr.is_attribute_level() ||
            corr.target_relation != f.target_relation ||
            corr.target_attribute != f.blocking_key) {
          continue;
        }
        auto table = source.database.table(corr.source_relation);
        ASSERT_TRUE(table.ok());
        auto column = (*table)->ColumnByName(corr.source_attribute);
        ASSERT_TRUE(column.ok());
        ASSERT_GT((*column)->size(), kLimit);
        auto stats =
            ProfileColumn(*samples.Sample(**column, kLimit), attribute->type);
        ASSERT_TRUE(stats.ok());
        min_fill = std::min(min_fill, stats->fill_status.NonNullFraction());
        min_uniqueness = std::min(
            min_uniqueness,
            static_cast<double>(stats->constancy.distinct_count) /
                static_cast<double>(stats->constancy.non_null_count));
        ++feeds;
      }
    }
    EXPECT_EQ(feeds, f.feeds.size());
    EXPECT_DOUBLE_EQ(f.key_fill, min_fill);
    EXPECT_DOUBLE_EQ(f.key_uniqueness, min_uniqueness);
  }
}

TEST(DedupModuleTest, FailedBatchFollowsTheThresholdNodes) {
  // As in the value module: the four thresholds are recorded before the
  // profiling batch, so a batch that fails leaves exactly them behind.
  IntegrationScenario scenario = MakeTwoSourceScenario();
  ProfileOptions exact;
  exact.mode = ApproximationMode::kExact;
  exact.max_memory_bytes = 1;
  ProvenanceRecorder recorder;
  auto report = DedupModule().AssessComplexity(
      scenario, RunContext{.profile = exact, .recorder = &recorder});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted);
  const ProvenanceSnapshot snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.nodes.size(), 4u);
  for (const ProvenanceNode& node : snapshot.nodes) {
    EXPECT_EQ(node.kind, ProvenanceKind::kThreshold) << node.label;
  }
}

TEST(DedupModuleTest, AssessmentRecordsFindingProvenance) {
  IntegrationScenario scenario = MakeTwoSourceScenario();
  ProvenanceRecorder recorder;
  RunContext context;
  context.recorder = &recorder;
  DedupModule module;
  auto report = module.AssessComplexity(scenario, context);
  ASSERT_TRUE(report.ok()) << report.status();
  const DedupComplexityReport& dedup = AsDedupReport(**report);
  EXPECT_NE((*report)->provenance_node(), 0u);
  ASSERT_EQ(dedup.findings().size(), 1u);
  EXPECT_NE(dedup.findings()[0].provenance, 0u);
  auto tasks = module.PlanTasks(**report, ExpectedQuality::kHighQuality,
                                ExecutionSettings{});
  ASSERT_TRUE(tasks.ok()) << tasks.status();
  ASSERT_EQ(tasks->size(), 1u);
  ASSERT_EQ((*tasks)[0].provenance.size(), 1u);
  EXPECT_EQ((*tasks)[0].provenance[0], dedup.findings()[0].provenance);
}

TEST(DedupModuleTest, BlockingBatchesAreTraced) {
  // One span per blocking batch, so --trace shows where dedup's time goes.
  IntegrationScenario scenario = MakeTwoSourceScenario();
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.set_enabled(true);
  auto report = DedupModule().AssessComplexity(scenario, RunContext{});
  recorder.set_enabled(false);
  ASSERT_TRUE(report.ok()) << report.status();
  std::vector<std::string> spans;
  for (const TraceEvent& event : recorder.events()) {
    if (event.name.rfind("dedup.", 0) == 0) spans.push_back(event.name);
  }
  recorder.Clear();
  std::sort(spans.begin(), spans.end());
  EXPECT_EQ(spans, (std::vector<std::string>{"dedup.group",
                                             "dedup.normalize"}));
}

TEST(DedupModuleTest, DetectFaultIsContainedByTheEngine) {
  IntegrationScenario scenario = MakeTwoSourceScenario();
  ASSERT_TRUE(
      FaultRegistry::Global().ArmFromString("dedup.detect:once").ok());
  EfesEngine engine = MakeDefaultEngine();
  auto result = engine.Run(scenario);
  FaultRegistry::Global().DisarmAll();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->degraded);
  ASSERT_EQ(result->module_runs.size(), 4u);
  bool saw_dedup = false;
  for (const ModuleRun& run : result->module_runs) {
    if (run.module == "dedup") {
      saw_dedup = true;
      EXPECT_FALSE(run.status.ok());
      EXPECT_TRUE(run.tasks.empty());
    } else {
      EXPECT_TRUE(run.status.ok()) << run.module << ": " << run.status;
    }
  }
  EXPECT_TRUE(saw_dedup);
}

}  // namespace
}  // namespace efes
