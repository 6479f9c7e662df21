// Tests for the Completeness pipeline step (profiling-completed sources),
// value-detector sampling, and the CSG DOT renderer.

#include <gtest/gtest.h>

#include "efes/csg/builder.h"
#include "efes/csg/render_dot.h"
#include "efes/profiling/constraint_discovery.h"
#include "efes/scenario/paper_example.h"
#include "efes/values/value_module.h"

namespace efes {
namespace {

TEST(CompletenessTest, DatabaseRebuildKeepsDataAddsConstraints) {
  auto scenario = MakePaperExample();
  ASSERT_TRUE(scenario.ok());
  const Database& original = scenario->sources[0].database;
  auto completed = DatabaseWithDiscoveredConstraints(original);
  ASSERT_TRUE(completed.ok()) << completed.status().ToString();
  EXPECT_GT(completed->schema().constraints().size(),
            original.schema().constraints().size());
  EXPECT_EQ(completed->TotalRowCount(), original.TotalRowCount());
  // Mined constraints hold exactly, so the instance stays valid.
  EXPECT_TRUE(completed->SatisfiesConstraints());
  // The data is bit-identical.
  const Table* original_albums = *original.table("albums");
  const Table* completed_albums = *completed->table("albums");
  for (size_t r = 0; r < original_albums->row_count(); ++r) {
    EXPECT_EQ(completed_albums->at(r, 1), original_albums->at(r, 1));
  }
}

TEST(CompletenessTest, DiscoveredNotNullTightensCsgCardinality) {
  auto scenario = MakePaperExample();
  ASSERT_TRUE(scenario.ok());
  // songs.album is nullable in the declared schema but fully filled in
  // the data: profiling discovers NOT NULL, which tightens
  // κ(songs -> album) from 0..1 to 1 in the CSG.
  auto completed =
      DatabaseWithDiscoveredConstraints(scenario->sources[0].database);
  ASSERT_TRUE(completed.ok());
  EXPECT_TRUE(completed->schema().IsNotNullable("songs", "album"));

  CsgGraph before = BuildCsgGraph(scenario->sources[0].database);
  CsgGraph after = BuildCsgGraph(*completed);
  auto find_forward = [](const CsgGraph& graph) {
    NodeId songs = *graph.FindTableNode("songs");
    NodeId album = *graph.FindAttributeNode("songs", "album");
    for (RelationshipId rel_id : graph.OutgoingOf(songs)) {
      if (graph.relationship(rel_id).to == album) {
        return graph.relationship(rel_id).prescribed;
      }
    }
    return Cardinality::Any();
  };
  EXPECT_EQ(find_forward(before), Cardinality::Optional());
  EXPECT_EQ(find_forward(after), Cardinality::Exactly(1));
}

TEST(SamplingTest, SampledDetectorFindsTheSameHeterogeneity) {
  auto scenario = MakePaperExample();
  ASSERT_TRUE(scenario.ok());
  ValueFitOptions options;
  options.sample_limit = 200;  // instead of 3000 song rows
  ValueModule sampled(options);
  auto report = sampled.AssessComplexity(*scenario, RunContext{});
  ASSERT_TRUE(report.ok());
  const auto& value_report =
      static_cast<const ValueComplexityReport&>(**report);
  ASSERT_EQ(value_report.heterogeneities().size(), 1u);
  const ValueHeterogeneity& h = value_report.heterogeneities()[0];
  EXPECT_EQ(h.type, ValueHeterogeneityType::kDifferentRepresentations);
  EXPECT_EQ(h.target_attribute, "tracks.duration");
  // The sample caps the counted values.
  EXPECT_LE(h.source_values, 200u);
}

TEST(SamplingTest, ZeroLimitMeansFullScan) {
  auto scenario = MakePaperExample();
  ASSERT_TRUE(scenario.ok());
  ValueModule full{ValueFitOptions{}};
  auto report = full.AssessComplexity(*scenario, RunContext{});
  ASSERT_TRUE(report.ok());
  const auto& value_report =
      static_cast<const ValueComplexityReport&>(**report);
  ASSERT_EQ(value_report.heterogeneities().size(), 1u);
  EXPECT_EQ(value_report.heterogeneities()[0].source_values, 3000u);
}

TEST(RenderDotTest, EmitsNodesAndEdges) {
  auto scenario = MakePaperExample();
  ASSERT_TRUE(scenario.ok());
  CsgGraph graph = BuildCsgGraph(scenario->target);
  std::string dot = RenderCsgDot(graph, "Target CSG");
  EXPECT_NE(dot.find("graph csg {"), std::string::npos);
  EXPECT_NE(dot.find("label=\"Target CSG\""), std::string::npos);
  EXPECT_NE(dot.find("records.artist"), std::string::npos);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);
  EXPECT_NE(dot.find("shape=ellipse"), std::string::npos);
  // FK equality edge dashed, labelled with both cardinalities.
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
  EXPECT_NE(dot.find("1 / 0..1"), std::string::npos);
  // Each conceptual relationship appears exactly once: 8 attribute edges
  // + 1 equality edge.
  size_t edges = 0;
  for (size_t pos = dot.find(" -- "); pos != std::string::npos;
       pos = dot.find(" -- ", pos + 1)) {
    ++edges;
  }
  EXPECT_EQ(edges, 8u);
}

}  // namespace
}  // namespace efes
