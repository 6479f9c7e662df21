// Tests for the detector extensions: composite-key (n-ary) conflicts via
// Lemma 3 and cross-source/pre-existing-data conflicts via Lemma 2.

#include <gtest/gtest.h>

#include "efes/structure/repair_planner.h"
#include "efes/structure/structure_module.h"

namespace efes {
namespace {

/// Target: events(day, room) with a composite PK; source: bookings with
/// the same attributes but no key — and duplicated (day, room) pairs.
IntegrationScenario MakeCompositeScenario(size_t duplicate_pairs) {
  Schema target_schema("t");
  (void)target_schema.AddRelation(RelationDef(
      "events", {{"day", DataType::kInteger},
                 {"room", DataType::kText},
                 {"note", DataType::kText}}));
  target_schema.AddConstraint(
      Constraint::PrimaryKey("events", {"day", "room"}));

  Schema source_schema("s");
  (void)source_schema.AddRelation(RelationDef(
      "bookings", {{"day", DataType::kInteger},
                   {"room", DataType::kText},
                   {"note", DataType::kText}}));
  auto source = Database::Create(std::move(source_schema));
  Table* bookings = *source->mutable_table("bookings");
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_TRUE(bookings
                    ->AppendRow({Value::Integer(static_cast<int64_t>(i)),
                                 Value::Text("r" + std::to_string(i % 7)),
                                 Value::Text("n")})
                    .ok());
  }
  // Duplicated (day, room) combinations.
  for (size_t i = 0; i < duplicate_pairs; ++i) {
    EXPECT_TRUE(bookings
                    ->AppendRow({Value::Integer(static_cast<int64_t>(i)),
                                 Value::Text("r" + std::to_string(i % 7)),
                                 Value::Text("dup")})
                    .ok());
  }

  CorrespondenceSet correspondences;
  correspondences.AddRelation("bookings", "events");
  correspondences.AddAttribute("bookings", "day", "events", "day");
  correspondences.AddAttribute("bookings", "room", "events", "room");
  correspondences.AddAttribute("bookings", "note", "events", "note");

  IntegrationScenario scenario(
      "composite", std::move(*Database::Create(std::move(target_schema))));
  scenario.AddSource(std::move(*source), std::move(correspondences));
  return scenario;
}

TEST(CompositeKeyTest, DetectsDuplicateKeyCombinations) {
  IntegrationScenario scenario = MakeCompositeScenario(3);
  CsgGraph graph;
  auto assessments = DetectStructureConflicts(scenario, &graph);
  ASSERT_TRUE(assessments.ok());
  bool found = false;
  for (const StructureConflict& conflict : (*assessments)[0].conflicts) {
    if (conflict.kind == StructuralConflictKind::kUniqueViolated) {
      found = true;
      // 3 duplicated pairs -> 6 rows in duplicated groups.
      EXPECT_EQ(conflict.violation_count, 6u);
      EXPECT_TRUE(conflict.excess);
      EXPECT_EQ(conflict.prescribed, Cardinality::Exactly(1));
      // Lemma 3 inverse over two 1..* attributes: 1..*.
      EXPECT_EQ(conflict.inferred, Cardinality::AtLeast(1));
      EXPECT_NE(conflict.source_path.find("Lemma 3"), std::string::npos);
      EXPECT_NE(conflict.target_constraint.find("PRIMARY KEY"),
                std::string::npos);
    }
  }
  EXPECT_TRUE(found);
}

TEST(CompositeKeyTest, CleanCompositeDataYieldsNoConflict) {
  IntegrationScenario scenario = MakeCompositeScenario(0);
  CsgGraph graph;
  auto assessments = DetectStructureConflicts(scenario, &graph);
  ASSERT_TRUE(assessments.ok());
  for (const StructureConflict& conflict : (*assessments)[0].conflicts) {
    EXPECT_NE(conflict.kind, StructuralConflictKind::kUniqueViolated);
  }
}

TEST(CompositeKeyTest, CanBeDisabled) {
  IntegrationScenario scenario = MakeCompositeScenario(3);
  CsgGraph graph;
  ConflictDetectorOptions options;
  options.detect_composite_keys = false;
  auto assessments = DetectStructureConflicts(scenario, &graph, options);
  ASSERT_TRUE(assessments.ok());
  for (const StructureConflict& conflict : (*assessments)[0].conflicts) {
    EXPECT_NE(conflict.kind, StructuralConflictKind::kUniqueViolated);
  }
}

TEST(CompositeKeyTest, PlannerRepairsWithAggregateTuples) {
  IntegrationScenario scenario = MakeCompositeScenario(4);
  CsgGraph graph;
  auto assessments = DetectStructureConflicts(scenario, &graph);
  ASSERT_TRUE(assessments.ok());
  auto tasks = PlanStructureRepairs(graph, (*assessments)[0].conflicts,
                                    ExpectedQuality::kHighQuality);
  ASSERT_TRUE(tasks.ok());
  bool aggregates = false;
  for (const Task& task : *tasks) {
    if (task.type == TaskType::kAggregateTuples) {
      aggregates = true;
      EXPECT_DOUBLE_EQ(task.Param(task_params::kRepetitions), 8.0);
    }
  }
  EXPECT_TRUE(aggregates);
}

/// Two sources both feeding the unique target attribute labels.name with
/// overlapping values, plus pre-existing target rows.
IntegrationScenario MakeCrossSourceScenario() {
  Schema target_schema("t");
  (void)target_schema.AddRelation(RelationDef(
      "labels", {{"id", DataType::kInteger}, {"name", DataType::kText}}));
  target_schema.AddConstraint(Constraint::PrimaryKey("labels", {"id"}));
  target_schema.AddConstraint(Constraint::Unique("labels", {"name"}));
  auto target = Database::Create(std::move(target_schema));
  Table* labels = *target->mutable_table("labels");
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(labels
                    ->AppendRow({Value::Integer(i),
                                 Value::Text("shared" + std::to_string(i))})
                    .ok());
  }

  auto make_source = [&](const std::string& name, int offset) {
    Schema schema(name);
    (void)schema.AddRelation(
        RelationDef("imprints", {{"title", DataType::kText}}));
    auto db = Database::Create(std::move(schema));
    Table* imprints = *db->mutable_table("imprints");
    for (int i = 0; i < 6; ++i) {
      // Values sharedX overlap across sources and with the target.
      std::string value = i < 3 ? "shared" + std::to_string(i)
                                : name + std::to_string(i + offset);
      EXPECT_TRUE(imprints->AppendRow({Value::Text(value)}).ok());
    }
    CorrespondenceSet correspondences;
    correspondences.AddRelation("imprints", "labels");
    correspondences.AddAttribute("imprints", "title", "labels", "name");
    return std::make_pair(std::move(*db), std::move(correspondences));
  };

  IntegrationScenario scenario("cross", std::move(*target));
  auto [a_db, a_corr] = make_source("alpha", 0);
  scenario.AddSource(std::move(a_db), std::move(a_corr));
  auto [b_db, b_corr] = make_source("beta", 10);
  scenario.AddSource(std::move(b_db), std::move(b_corr));
  return scenario;
}

TEST(CrossSourceTest, OffByDefault) {
  IntegrationScenario scenario = MakeCrossSourceScenario();
  CsgGraph graph;
  auto assessments = DetectStructureConflicts(scenario, &graph);
  ASSERT_TRUE(assessments.ok());
  for (const SourceStructureAssessment& assessment : *assessments) {
    EXPECT_NE(assessment.source_database, "(combined)");
  }
}

TEST(CrossSourceTest, DetectsOverlapAcrossContributions) {
  IntegrationScenario scenario = MakeCrossSourceScenario();
  CsgGraph graph;
  ConflictDetectorOptions options;
  options.detect_cross_source_conflicts = true;
  auto assessments = DetectStructureConflicts(scenario, &graph, options);
  ASSERT_TRUE(assessments.ok());
  const SourceStructureAssessment* combined = nullptr;
  for (const SourceStructureAssessment& assessment : *assessments) {
    if (assessment.source_database == "(combined)") combined = &assessment;
  }
  ASSERT_NE(combined, nullptr);
  ASSERT_EQ(combined->conflicts.size(), 1u);
  const StructureConflict& conflict = combined->conflicts[0];
  EXPECT_EQ(conflict.kind, StructuralConflictKind::kUniqueViolated);
  // shared0..shared2 appear in all three contributions; shared3/shared4
  // only in the target -> 3 overlapping values.
  EXPECT_EQ(conflict.violation_count, 3u);
  // Lemma 2's overlapping union over three 1-contributions: 1..3.
  EXPECT_EQ(conflict.inferred, Cardinality::Between(1, 3));
  EXPECT_NE(conflict.source_path.find("Lemma 2"), std::string::npos);
}

TEST(CrossSourceTest, NoOverlapNoConflict) {
  // Distinct value spaces: no combined conflict even when enabled.
  Schema target_schema("t");
  (void)target_schema.AddRelation(
      RelationDef("u", {{"k", DataType::kText}}));
  target_schema.AddConstraint(Constraint::Unique("u", {"k"}));
  Schema source_schema("s");
  (void)source_schema.AddRelation(
      RelationDef("v", {{"k", DataType::kText}}));
  auto source = Database::Create(std::move(source_schema));
  Table* v = *source->mutable_table("v");
  ASSERT_TRUE(v->AppendRow({Value::Text("only-here")}).ok());
  CorrespondenceSet correspondences;
  correspondences.AddRelation("v", "u");
  correspondences.AddAttribute("v", "k", "u", "k");
  IntegrationScenario scenario(
      "disjoint", std::move(*Database::Create(std::move(target_schema))));
  scenario.AddSource(std::move(*source), std::move(correspondences));

  CsgGraph graph;
  ConflictDetectorOptions options;
  options.detect_cross_source_conflicts = true;
  auto assessments = DetectStructureConflicts(scenario, &graph, options);
  ASSERT_TRUE(assessments.ok());
  for (const SourceStructureAssessment& assessment : *assessments) {
    EXPECT_NE(assessment.source_database, "(combined)");
  }
}

TEST(CrossSourceTest, FullModulePlansCombinedRepair) {
  IntegrationScenario scenario = MakeCrossSourceScenario();
  StructureModule::Options options;
  options.detector.detect_cross_source_conflicts = true;
  StructureModule module(options);
  auto report = module.AssessComplexity(scenario, RunContext{});
  ASSERT_TRUE(report.ok());
  auto tasks =
      module.PlanTasks(**report, ExpectedQuality::kHighQuality, {});
  ASSERT_TRUE(tasks.ok());
  bool combined_repair = false;
  for (const Task& task : *tasks) {
    if (task.subject.find("(combined)") != std::string::npos &&
        task.type == TaskType::kAggregateTuples) {
      combined_repair = true;
    }
  }
  EXPECT_TRUE(combined_repair);
}

}  // namespace
}  // namespace efes
