// Tests for CSG graphs, and for the Value-keyed instance the dense
// CsgInstance is differentially tested against (csg_differential_test).

#include "efes/csg/graph.h"

#include <gtest/gtest.h>

#include "csg_reference.h"

namespace efes {
namespace {

/// A tiny CSG: one table node with one attribute node,
/// κ(table→attr) = 1, κ(attr→table) = 1..*.
struct TinyCsg {
  CsgGraph graph;
  NodeId table;
  NodeId attribute;
  RelationshipId forward;  // table -> attribute

  TinyCsg() {
    table = graph.AddTableNode("records");
    attribute = graph.AddAttributeNode("records", "artist", DataType::kText);
    forward = graph.AddRelationshipPair(
        table, attribute, CsgEdgeKind::kAttribute, Cardinality::Exactly(1),
        Cardinality::AtLeast(1));
  }
};

TEST(CsgGraphTest, NodesAndQualifiedNames) {
  TinyCsg csg;
  EXPECT_EQ(csg.graph.nodes().size(), 2u);
  EXPECT_EQ(csg.graph.node(csg.table).QualifiedName(), "records");
  EXPECT_EQ(csg.graph.node(csg.attribute).QualifiedName(), "records.artist");
  EXPECT_EQ(csg.graph.node(csg.attribute).kind, CsgNodeKind::kAttribute);
}

TEST(CsgGraphTest, RelationshipPairIsMutuallyInverse) {
  TinyCsg csg;
  const CsgRelationship& forward = csg.graph.relationship(csg.forward);
  const CsgRelationship& backward =
      csg.graph.relationship(forward.inverse);
  EXPECT_EQ(backward.inverse, forward.id);
  EXPECT_EQ(forward.from, csg.table);
  EXPECT_EQ(forward.to, csg.attribute);
  EXPECT_EQ(backward.from, csg.attribute);
  EXPECT_EQ(backward.to, csg.table);
  EXPECT_EQ(forward.prescribed, Cardinality::Exactly(1));
  EXPECT_EQ(backward.prescribed, Cardinality::AtLeast(1));
}

TEST(CsgGraphTest, AdjacencyListsBothDirections) {
  TinyCsg csg;
  ASSERT_EQ(csg.graph.OutgoingOf(csg.table).size(), 1u);
  ASSERT_EQ(csg.graph.OutgoingOf(csg.attribute).size(), 1u);
  EXPECT_EQ(csg.graph.OutgoingOf(csg.table)[0], csg.forward);
}

TEST(CsgGraphTest, FindNodes) {
  TinyCsg csg;
  EXPECT_EQ(*csg.graph.FindTableNode("records"), csg.table);
  EXPECT_FALSE(csg.graph.FindTableNode("ghost").ok());
  EXPECT_EQ(*csg.graph.FindAttributeNode("records", "artist"),
            csg.attribute);
  EXPECT_FALSE(csg.graph.FindAttributeNode("records", "ghost").ok());
}

TEST(CsgGraphTest, SetPrescribedReplacesCardinality) {
  TinyCsg csg;
  csg.graph.SetPrescribed(csg.forward, Cardinality::Optional());
  EXPECT_EQ(csg.graph.relationship(csg.forward).prescribed,
            Cardinality::Optional());
}

TEST(CsgGraphTest, DescribeAndToText) {
  TinyCsg csg;
  EXPECT_EQ(csg.graph.DescribeRelationship(csg.forward),
            "records -> records.artist [1]");
  std::string text = csg.graph.ToText();
  EXPECT_NE(text.find("[table] records"), std::string::npos);
  EXPECT_NE(text.find("(attr)  records.artist : text"), std::string::npos);
}

TEST(CsgInstanceTest, ElementsDeduplicate) {
  TinyCsg csg;
  ReferenceCsgInstance instance(csg.graph.nodes().size(),
                                csg.graph.relationships().size());
  instance.AddElement(csg.attribute, Value::Text("x"));
  instance.AddElement(csg.attribute, Value::Text("x"));
  instance.AddElement(csg.attribute, Value::Text("y"));
  EXPECT_EQ(instance.ElementCount(csg.attribute), 2u);
}

TEST(CsgInstanceTest, LinksMirrorOnInverse) {
  TinyCsg csg;
  ReferenceCsgInstance instance(csg.graph.nodes().size(),
                                csg.graph.relationships().size());
  Value tuple = Value::Integer(0);
  Value value = Value::Text("x");
  instance.AddElement(csg.table, tuple);
  instance.AddElement(csg.attribute, value);
  instance.AddLink(csg.graph, csg.forward, tuple, value);
  EXPECT_EQ(instance.LinkCount(csg.forward), 1u);
  RelationshipId inverse = csg.graph.relationship(csg.forward).inverse;
  EXPECT_EQ(instance.LinkCount(inverse), 1u);
}

TEST(CsgInstanceTest, OutDegreesIncludeZeroDegreeElements) {
  TinyCsg csg;
  ReferenceCsgInstance instance(csg.graph.nodes().size(),
                                csg.graph.relationships().size());
  instance.AddElement(csg.table, Value::Integer(0));
  instance.AddElement(csg.table, Value::Integer(1));
  instance.AddElement(csg.attribute, Value::Text("x"));
  instance.AddLink(csg.graph, csg.forward, Value::Integer(0),
                   Value::Text("x"));
  auto degrees = instance.OutDegrees(csg.graph, csg.forward);
  EXPECT_EQ(degrees[Value::Integer(0)], 1u);
  EXPECT_EQ(degrees[Value::Integer(1)], 0u);  // tuple without value
}

TEST(CsgInstanceTest, ActualCardinalityAndViolations) {
  TinyCsg csg;
  ReferenceCsgInstance instance(csg.graph.nodes().size(),
                                csg.graph.relationships().size());
  // Tuple 0 has two artist values, tuple 1 has one, tuple 2 none.
  for (int t = 0; t < 3; ++t) {
    instance.AddElement(csg.table, Value::Integer(t));
  }
  for (const char* name : {"a", "b"}) {
    instance.AddElement(csg.attribute, Value::Text(name));
    instance.AddLink(csg.graph, csg.forward, Value::Integer(0),
                     Value::Text(name));
  }
  instance.AddLink(csg.graph, csg.forward, Value::Integer(1),
                   Value::Text("a"));

  EXPECT_EQ(instance.ActualCardinality(csg.graph, csg.forward),
            Cardinality::Between(0, 2));
  // κ = 1 -> tuples 0 (two values) and 2 (none) violate.
  EXPECT_EQ(
      instance.CountViolations(csg.graph, csg.forward,
                               Cardinality::Exactly(1)),
      2u);
  EXPECT_EQ(instance.CountViolations(csg.graph, csg.forward,
                                     Cardinality::Any()),
            0u);
}

TEST(CsgInstanceTest, EmptyNodeActualCardinalityIsZero) {
  TinyCsg csg;
  ReferenceCsgInstance instance(csg.graph.nodes().size(),
                                csg.graph.relationships().size());
  EXPECT_EQ(instance.ActualCardinality(csg.graph, csg.forward),
            Cardinality::Exactly(0));
}

/// A three-hop chain A -> B -> C to exercise path walks.
struct ChainCsg {
  CsgGraph graph;
  NodeId a, b, c;
  RelationshipId ab, bc;

  ChainCsg() {
    a = graph.AddTableNode("a");
    b = graph.AddAttributeNode("a", "x", DataType::kText);
    c = graph.AddAttributeNode("p", "y", DataType::kText);
    ab = graph.AddRelationshipPair(a, b, CsgEdgeKind::kAttribute,
                                   Cardinality::Exactly(1),
                                   Cardinality::AtLeast(1));
    bc = graph.AddRelationshipPair(b, c, CsgEdgeKind::kEquality,
                                   Cardinality::Exactly(1),
                                   Cardinality::Optional());
  }
};

TEST(CsgInstanceTest, PathOutDegreesDeduplicateTargets) {
  ChainCsg csg;
  ReferenceCsgInstance instance(csg.graph.nodes().size(),
                                csg.graph.relationships().size());
  instance.AddElement(csg.a, Value::Integer(0));
  instance.AddElement(csg.b, Value::Text("b1"));
  instance.AddElement(csg.b, Value::Text("b2"));
  instance.AddElement(csg.c, Value::Text("c1"));
  // Tuple 0 reaches c1 via both b1 and b2: degree must still be 1.
  instance.AddLink(csg.graph, csg.ab, Value::Integer(0), Value::Text("b1"));
  instance.AddLink(csg.graph, csg.ab, Value::Integer(0), Value::Text("b2"));
  instance.AddLink(csg.graph, csg.bc, Value::Text("b1"), Value::Text("c1"));
  instance.AddLink(csg.graph, csg.bc, Value::Text("b2"), Value::Text("c1"));

  auto degrees = instance.PathOutDegrees(csg.graph, {csg.ab, csg.bc});
  EXPECT_EQ(degrees[Value::Integer(0)], 1u);
  EXPECT_EQ(instance.ActualPathCardinality(csg.graph, {csg.ab, csg.bc}),
            Cardinality::Exactly(1));
  EXPECT_EQ(instance.CountPathViolations(csg.graph, {csg.ab, csg.bc},
                                         Cardinality::Exactly(1)),
            0u);
}

TEST(CsgInstanceTest, PathViolationsCountBrokenChains) {
  ChainCsg csg;
  ReferenceCsgInstance instance(csg.graph.nodes().size(),
                                csg.graph.relationships().size());
  instance.AddElement(csg.a, Value::Integer(0));
  instance.AddElement(csg.a, Value::Integer(1));
  instance.AddElement(csg.b, Value::Text("b1"));
  instance.AddElement(csg.c, Value::Text("c1"));
  instance.AddLink(csg.graph, csg.ab, Value::Integer(0), Value::Text("b1"));
  instance.AddLink(csg.graph, csg.bc, Value::Text("b1"), Value::Text("c1"));
  // Tuple 1 has no b link at all -> path degree 0.
  EXPECT_EQ(instance.CountPathViolations(csg.graph, {csg.ab, csg.bc},
                                         Cardinality::Exactly(1)),
            1u);
}

}  // namespace
}  // namespace efes
