// Tests for the structure conflict detector (Section 4.1 / Table 3).

#include "efes/structure/conflict_detector.h"

#include <gtest/gtest.h>
#include <memory>

#include "efes/scenario/paper_example.h"

namespace efes {
namespace {

TEST(ConflictClassificationTest, AllFiveTable4Rows) {
  CsgGraph graph;
  NodeId table = graph.AddTableNode("t");
  NodeId attr = graph.AddAttributeNode("t", "a", DataType::kText);
  NodeId other = graph.AddAttributeNode("p", "k", DataType::kInteger);
  RelationshipId forward = graph.AddRelationshipPair(
      table, attr, CsgEdgeKind::kAttribute, Cardinality::Exactly(1),
      Cardinality::AtLeast(1));
  RelationshipId equality = graph.AddRelationshipPair(
      attr, other, CsgEdgeKind::kEquality, Cardinality::Exactly(1),
      Cardinality::Optional());

  const CsgRelationship& table_to_attr = graph.relationship(forward);
  const CsgRelationship& attr_to_table =
      graph.relationship(table_to_attr.inverse);
  const CsgRelationship& fk = graph.relationship(equality);

  EXPECT_EQ(ClassifyConflict(graph, table_to_attr, /*excess=*/false),
            StructuralConflictKind::kNotNullViolated);
  EXPECT_EQ(ClassifyConflict(graph, table_to_attr, /*excess=*/true),
            StructuralConflictKind::kMultipleAttributeValues);
  EXPECT_EQ(ClassifyConflict(graph, attr_to_table, /*excess=*/false),
            StructuralConflictKind::kValueWithoutTuple);
  EXPECT_EQ(ClassifyConflict(graph, attr_to_table, /*excess=*/true),
            StructuralConflictKind::kUniqueViolated);
  EXPECT_EQ(ClassifyConflict(graph, fk, /*excess=*/false),
            StructuralConflictKind::kForeignKeyViolated);
}

TEST(ConflictKindNamesTest, MatchTable4) {
  EXPECT_EQ(StructuralConflictKindToString(
                StructuralConflictKind::kNotNullViolated),
            "Not null violated");
  EXPECT_EQ(StructuralConflictKindToString(
                StructuralConflictKind::kValueWithoutTuple),
            "Value w/o enclosing tuple");
  EXPECT_EQ(StructuralConflictKindToString(
                StructuralConflictKind::kForeignKeyViolated),
            "FK violated");
}

class PaperExampleDetectorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto scenario = MakePaperExample();
    ASSERT_TRUE(scenario.ok());
    scenario_ = std::make_unique<IntegrationScenario>(std::move(*scenario));
    target_graph_ = std::make_unique<CsgGraph>();
    auto assessments =
        DetectStructureConflicts(*scenario_, target_graph_.get());
    ASSERT_TRUE(assessments.ok());
    assessments_ = std::make_unique<std::vector<SourceStructureAssessment>>(
        std::move(*assessments));
  }

  static void TearDownTestSuite() {
    assessments_.reset();
    target_graph_.reset();
    scenario_.reset();
  }

  static std::unique_ptr<IntegrationScenario> scenario_;
  static std::unique_ptr<CsgGraph> target_graph_;
  static std::unique_ptr<std::vector<SourceStructureAssessment>> assessments_;
};

std::unique_ptr<IntegrationScenario> PaperExampleDetectorTest::scenario_;
std::unique_ptr<CsgGraph> PaperExampleDetectorTest::target_graph_;
std::unique_ptr<std::vector<SourceStructureAssessment>>
    PaperExampleDetectorTest::assessments_;

TEST_F(PaperExampleDetectorTest, OneAssessmentPerSource) {
  ASSERT_EQ(assessments_->size(), 1u);
  EXPECT_EQ((*assessments_)[0].source_database, "music_source");
}

TEST_F(PaperExampleDetectorTest, Table3MultiArtistViolations) {
  // "κ(records → artist) = 1 | 503" — albums associated with more than
  // one artist.
  size_t excess_count = 0;
  for (const StructureConflict& conflict : (*assessments_)[0].conflicts) {
    if (conflict.kind == StructuralConflictKind::kMultipleAttributeValues) {
      excess_count += conflict.violation_count;
      EXPECT_TRUE(conflict.excess);
      EXPECT_EQ(conflict.prescribed, Cardinality::Exactly(1));
      // Lemma 1 over the matched path gives 0..* (Section 4.1).
      EXPECT_EQ(conflict.inferred, Cardinality::Any());
    }
  }
  EXPECT_EQ(excess_count, 503u);
}

TEST_F(PaperExampleDetectorTest, Table3DetachedArtistViolations) {
  // "κ(artist → records) = 1..* | 102" — artists without albums.
  size_t detached_count = 0;
  for (const StructureConflict& conflict : (*assessments_)[0].conflicts) {
    if (conflict.kind == StructuralConflictKind::kValueWithoutTuple) {
      detached_count += conflict.violation_count;
      EXPECT_FALSE(conflict.excess);
    }
  }
  EXPECT_EQ(detached_count, 102u);
}

TEST_F(PaperExampleDetectorTest, NoSpuriousConflicts) {
  // The example scenario contains exactly the two Table 3 conflicts:
  // no NOT NULL, unique, or FK violations exist in the data (e.g. all
  // songs reference an album even though the schema would allow NULL).
  for (const StructureConflict& conflict : (*assessments_)[0].conflicts) {
    EXPECT_TRUE(
        conflict.kind == StructuralConflictKind::kMultipleAttributeValues ||
        conflict.kind == StructuralConflictKind::kValueWithoutTuple)
        << conflict.target_constraint << " ("
        << StructuralConflictKindToString(conflict.kind) << ", "
        << conflict.violation_count << ")";
  }
}

TEST_F(PaperExampleDetectorTest, MatchedPathGoesThroughArtistCredits) {
  for (const StructureConflict& conflict : (*assessments_)[0].conflicts) {
    if (conflict.kind == StructuralConflictKind::kMultipleAttributeValues) {
      EXPECT_NE(conflict.source_path.find("artist_credits"),
                std::string::npos)
          << conflict.source_path;
      EXPECT_NE(conflict.source_path.find("artist_lists"),
                std::string::npos);
    }
  }
}

TEST(DetectorEdgeCasesTest, RequiresOutputGraph) {
  auto scenario = MakePaperExample();
  ASSERT_TRUE(scenario.ok());
  auto result = DetectStructureConflicts(*scenario, nullptr);
  EXPECT_FALSE(result.ok());
}

TEST(DetectorEdgeCasesTest, UnmappedRelationshipsAreSkipped) {
  // A target with constraints but no correspondences at all: the detector
  // has no information and must report nothing.
  Schema target_schema("t");
  (void)target_schema.AddRelation(RelationDef(
      "t", {{"id", DataType::kInteger}, {"v", DataType::kText}}));
  target_schema.AddConstraint(Constraint::PrimaryKey("t", {"id"}));
  target_schema.AddConstraint(Constraint::NotNull("t", "v"));
  Schema source_schema("s");
  (void)source_schema.AddRelation(RelationDef("s", {{"x", DataType::kText}}));
  IntegrationScenario scenario(
      "unmapped", std::move(*Database::Create(std::move(target_schema))));
  scenario.AddSource(std::move(*Database::Create(std::move(source_schema))),
                     CorrespondenceSet());
  CsgGraph graph;
  auto assessments = DetectStructureConflicts(scenario, &graph);
  ASSERT_TRUE(assessments.ok());
  EXPECT_TRUE((*assessments)[0].conflicts.empty());
}

TEST(DetectorEdgeCasesTest, MissingSourcePathCountsAllElements) {
  // Target: table with a mandatory attribute; source: corresponding
  // relation + attribute exist but live in disconnected relations, so no
  // path realizes the relationship.
  Schema target_schema("t");
  (void)target_schema.AddRelation(
      RelationDef("t", {{"v", DataType::kText}}));
  target_schema.AddConstraint(Constraint::NotNull("t", "v"));
  Schema source_schema("s");
  (void)source_schema.AddRelation(RelationDef("s", {{"x", DataType::kText}}));
  (void)source_schema.AddRelation(
      RelationDef("island", {{"y", DataType::kText}}));
  auto source_db = Database::Create(std::move(source_schema));
  Table* s = *source_db->mutable_table("s");
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        s->AppendRow({Value::Text(std::string("x").append(std::to_string(i)))})
            .ok());
  }
  Table* island = *source_db->mutable_table("island");
  ASSERT_TRUE(island->AppendRow({Value::Text("y0")}).ok());

  CorrespondenceSet correspondences;
  correspondences.AddRelation("s", "t");
  correspondences.AddAttribute("island", "y", "t", "v");

  IntegrationScenario scenario(
      "disconnected", std::move(*Database::Create(std::move(target_schema))));
  scenario.AddSource(std::move(*source_db), std::move(correspondences));

  CsgGraph graph;
  auto assessments = DetectStructureConflicts(scenario, &graph);
  ASSERT_TRUE(assessments.ok());
  bool found = false;
  for (const StructureConflict& conflict : (*assessments)[0].conflicts) {
    if (conflict.kind == StructuralConflictKind::kNotNullViolated) {
      found = true;
      // Every s tuple lacks the mandatory value.
      EXPECT_EQ(conflict.violation_count, 5u);
      EXPECT_EQ(conflict.source_path, "(no source path)");
    }
  }
  EXPECT_TRUE(found);
}

TEST(DetectorEdgeCasesTest, InferredSubsetSkipsCounting) {
  // Source NOT NULL guarantees the target NOT NULL statically: even if
  // counting would be expensive, no conflict may be reported.
  Schema target_schema("t");
  (void)target_schema.AddRelation(
      RelationDef("t", {{"v", DataType::kText}}));
  target_schema.AddConstraint(Constraint::NotNull("t", "v"));
  Schema source_schema("s");
  (void)source_schema.AddRelation(RelationDef("s", {{"x", DataType::kText}}));
  source_schema.AddConstraint(Constraint::NotNull("s", "x"));
  auto source_db = Database::Create(std::move(source_schema));
  Table* s = *source_db->mutable_table("s");
  ASSERT_TRUE(s->AppendRow({Value::Text("present")}).ok());

  CorrespondenceSet correspondences;
  correspondences.AddRelation("s", "t");
  correspondences.AddAttribute("s", "x", "t", "v");

  IntegrationScenario scenario(
      "static-fit", std::move(*Database::Create(std::move(target_schema))));
  scenario.AddSource(std::move(*source_db), std::move(correspondences));

  CsgGraph graph;
  auto assessments = DetectStructureConflicts(scenario, &graph);
  ASSERT_TRUE(assessments.ok());
  EXPECT_TRUE((*assessments)[0].conflicts.empty());
}

}  // namespace
}  // namespace efes
