// Tests for the graph search that matches target relationships to source
// relationships (Section 4.1).

#include "efes/csg/path_search.h"

#include <gtest/gtest.h>

namespace efes {
namespace {

/// A diamond graph with two routes from `start` to `end`:
///   short route: start -> end           (configurable κ)
///   long route:  start -> mid -> end    (configurable κs)
struct Diamond {
  CsgGraph graph;
  NodeId start, mid, end;
  RelationshipId direct, to_mid, from_mid;

  Diamond(const Cardinality& direct_k, const Cardinality& to_mid_k,
          const Cardinality& from_mid_k) {
    start = graph.AddTableNode("start");
    mid = graph.AddAttributeNode("start", "mid", DataType::kText);
    end = graph.AddAttributeNode("other", "end", DataType::kText);
    direct = graph.AddRelationshipPair(start, end, CsgEdgeKind::kAttribute,
                                       direct_k, Cardinality::Any());
    to_mid = graph.AddRelationshipPair(start, mid, CsgEdgeKind::kAttribute,
                                       to_mid_k, Cardinality::Any());
    from_mid = graph.AddRelationshipPair(mid, end, CsgEdgeKind::kEquality,
                                         from_mid_k, Cardinality::Any());
  }
};

TEST(PathSearchTest, EnumeratesAllSimplePaths) {
  Diamond diamond(Cardinality::Any(), Cardinality::Any(),
                  Cardinality::Any());
  std::vector<PathMatch> paths =
      EnumeratePaths(diamond.graph, diamond.start, diamond.end);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].length(), 1u);  // shortest first
  EXPECT_EQ(paths[1].length(), 2u);
}

TEST(PathSearchTest, StartEqualsEndYieldsNothing) {
  Diamond diamond(Cardinality::Any(), Cardinality::Any(),
                  Cardinality::Any());
  EXPECT_TRUE(
      EnumeratePaths(diamond.graph, diamond.start, diamond.start).empty());
}

TEST(PathSearchTest, ComposesCardinalitiesAlongPath) {
  Diamond diamond(Cardinality::Exactly(1), Cardinality::Optional(),
                  Cardinality::AtLeast(1));
  std::vector<PathMatch> paths =
      EnumeratePaths(diamond.graph, diamond.start, diamond.end);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].inferred, Cardinality::Exactly(1));
  // 0..1 ∘ 1..* = 0..*.
  EXPECT_EQ(paths[1].inferred, Cardinality::Any());
}

TEST(PathSearchTest, MaxLengthBoundsSearch) {
  Diamond diamond(Cardinality::Any(), Cardinality::Any(),
                  Cardinality::Any());
  PathSearchOptions options;
  options.max_length = 1;
  EXPECT_EQ(
      EnumeratePaths(diamond.graph, diamond.start, diamond.end, options)
          .size(),
      1u);
}

TEST(PathSearchTest, SelectsMoreConciseCardinality) {
  // Long route infers 1 (most concise), direct infers 0..*.
  Diamond diamond(Cardinality::Any(), Cardinality::Exactly(1),
                  Cardinality::Exactly(1));
  auto best = FindBestPath(diamond.graph, diamond.start, diamond.end);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->length(), 2u);
  EXPECT_EQ(best->inferred, Cardinality::Exactly(1));
}

TEST(PathSearchTest, EqualCardinalityPrefersShorterPath) {
  // Both routes infer 0..* -> Occam's razor picks the direct one.
  Diamond diamond(Cardinality::Any(), Cardinality::Any(),
                  Cardinality::Any());
  auto best = FindBestPath(diamond.graph, diamond.start, diamond.end);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->length(), 1u);
}

TEST(PathSearchTest, IncomparableCardinalitiesPickTighterInterval) {
  // Direct: 0..1 (width 1); long: 1..3 (width 2). Neither subset of the
  // other -> tighter interval wins.
  Diamond diamond(Cardinality::Optional(), Cardinality::Exactly(1),
                  Cardinality::Between(1, 3));
  auto best = FindBestPath(diamond.graph, diamond.start, diamond.end);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->inferred, Cardinality::Optional());
}

TEST(PathSearchTest, NoPathReturnsNullopt) {
  CsgGraph graph;
  NodeId a = graph.AddTableNode("a");
  NodeId b = graph.AddTableNode("b");
  EXPECT_FALSE(FindBestPath(graph, a, b).has_value());
}

TEST(PathSearchTest, IsMoreConciseIsStrict) {
  PathMatch narrow{{0}, Cardinality::Exactly(1)};
  PathMatch wide{{1}, Cardinality::Any()};
  EXPECT_TRUE(IsMoreConcise(narrow, wide));
  EXPECT_FALSE(IsMoreConcise(wide, narrow));
  EXPECT_FALSE(IsMoreConcise(narrow, narrow));
}

TEST(PathSearchTest, SelectEmptyCandidates) {
  EXPECT_FALSE(SelectMostConcise({}).has_value());
}

TEST(PathSearchTest, DescribePathRendersChain) {
  Diamond diamond(Cardinality::Any(), Cardinality::Any(),
                  Cardinality::Any());
  std::vector<PathMatch> paths =
      EnumeratePaths(diamond.graph, diamond.start, diamond.end);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(DescribePath(diamond.graph, paths[1].path),
            "start -> start.mid ==> other.end");
  EXPECT_EQ(DescribePath(diamond.graph, {}), "(empty path)");
}

TEST(PathSearchTest, CandidateCapRespected) {
  // A ladder graph with exponentially many paths; the cap must hold.
  CsgGraph graph;
  constexpr int kRungs = 12;
  std::vector<NodeId> left(kRungs);
  std::vector<NodeId> right(kRungs);
  for (int i = 0; i < kRungs; ++i) {
    left[i] = graph.AddTableNode(std::string("l").append(std::to_string(i)));
    right[i] = graph.AddTableNode(std::string("r").append(std::to_string(i)));
    if (i > 0) {
      graph.AddRelationshipPair(left[i - 1], left[i],
                                CsgEdgeKind::kAttribute, Cardinality::Any(),
                                Cardinality::Any());
      graph.AddRelationshipPair(right[i - 1], right[i],
                                CsgEdgeKind::kAttribute, Cardinality::Any(),
                                Cardinality::Any());
    }
    graph.AddRelationshipPair(left[i], right[i], CsgEdgeKind::kAttribute,
                              Cardinality::Any(), Cardinality::Any());
  }
  PathSearchOptions options;
  options.max_length = 24;
  options.max_candidates = 50;
  std::vector<PathMatch> paths =
      EnumeratePaths(graph, left[0], right[kRungs - 1], options);
  EXPECT_LE(paths.size(), 50u);
  EXPECT_FALSE(paths.empty());
}

}  // namespace
}  // namespace efes
