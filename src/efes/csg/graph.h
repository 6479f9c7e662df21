// Cardinality-constrained schema graphs (CSGs), Definition 1/2 of the
// paper, and their instances.
//
// A CSG is a graph whose nodes represent either the tuples of a relation
// ("table nodes") or the distinct values of an attribute ("attribute
// nodes"), and whose relationships connect them. Prescribed cardinalities
// κ on the directed relationships express unique, not-null and foreign
// key constraints plus the two relational conformity rules ("each tuple
// can have at most one value per attribute, and each attribute value must
// be contained in a tuple"). CSGs are deliberately *more* general than
// the relational model: an integrated instance may violate the prescribed
// cardinalities (e.g. two artist values for one record), which is exactly
// what the structure conflict detector measures.

#ifndef EFES_CSG_GRAPH_H_
#define EFES_CSG_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "efes/common/result.h"
#include "efes/csg/cardinality.h"
#include "efes/relational/value.h"

namespace efes {

using NodeId = size_t;
using RelationshipId = size_t;

enum class CsgNodeKind {
  /// Represents the existence of tuples of a relation.
  kTable,
  /// Holds the set of distinct values of an attribute.
  kAttribute,
};

struct CsgNode {
  NodeId id = 0;
  CsgNodeKind kind = CsgNodeKind::kTable;
  /// Owning relation name; for attribute nodes also `attribute` is set.
  std::string relation;
  std::string attribute;
  /// Datatype for attribute nodes; irrelevant for table nodes.
  DataType type = DataType::kText;

  /// "albums" for table nodes, "albums.name" for attribute nodes.
  std::string QualifiedName() const;
};

enum class CsgEdgeKind {
  /// Connects a table node with one of its attribute nodes (solid edge).
  kAttribute,
  /// Links equal elements of two attribute nodes — the representation of
  /// foreign keys (dashed edge in Figure 4).
  kEquality,
};

/// One *directed* relationship. Every conceptual relationship is stored as
/// two directed halves that reference each other through `inverse`, since
/// the paper prescribes independent cardinalities for both directions
/// (e.g. κ(ρ tracks→record) = 1 but κ(ρ record→tracks) = 1..*).
struct CsgRelationship {
  RelationshipId id = 0;
  NodeId from = 0;
  NodeId to = 0;
  CsgEdgeKind kind = CsgEdgeKind::kAttribute;
  Cardinality prescribed;
  RelationshipId inverse = 0;
};

class CsgGraph {
 public:
  CsgGraph() = default;

  NodeId AddTableNode(std::string relation);
  NodeId AddAttributeNode(std::string relation, std::string attribute,
                          DataType type);

  /// Adds the directed pair (from→to with `forward`, to→from with
  /// `backward`) and returns the id of the forward half.
  RelationshipId AddRelationshipPair(NodeId from, NodeId to,
                                     CsgEdgeKind kind,
                                     const Cardinality& forward,
                                     const Cardinality& backward);

  const std::vector<CsgNode>& nodes() const { return nodes_; }
  const std::vector<CsgRelationship>& relationships() const {
    return relationships_;
  }
  const CsgNode& node(NodeId id) const { return nodes_[id]; }
  const CsgRelationship& relationship(RelationshipId id) const {
    return relationships_[id];
  }

  /// Replaces the prescribed cardinality of one directed relationship.
  void SetPrescribed(RelationshipId id, const Cardinality& cardinality);

  Result<NodeId> FindTableNode(std::string_view relation) const;
  Result<NodeId> FindAttributeNode(std::string_view relation,
                                   std::string_view attribute) const;

  /// Directed relationships leaving `node`.
  const std::vector<RelationshipId>& OutgoingOf(NodeId node) const {
    return adjacency_[node];
  }

  /// Human-readable rendering of every node and directed relationship
  /// with its κ — the textual analogue of Figure 4.
  std::string ToText() const;

  /// One-line description like "albums -> albums.name [0..1]".
  std::string DescribeRelationship(RelationshipId id) const;

 private:
  std::vector<CsgNode> nodes_;
  std::vector<CsgRelationship> relationships_;
  std::vector<std::vector<RelationshipId>> adjacency_;
};

/// Dense id of an element within its node. A table node's elements are
/// its row indices; an attribute node's elements index its dictionary of
/// distinct values. Ids and link offsets are 32-bit, so a node holds and
/// a relationship links fewer than 2^32 elements; loaded tables are
/// capped far below that (CsvReadOptions::max_rows).
using ElementId = uint32_t;

/// The links of one directed relationship in compressed sparse row form:
/// the targets of element `e` of the `from` node are
/// `targets[offsets[e] .. offsets[e + 1])`.
struct CsrLinks {
  std::vector<uint32_t> offsets;
  std::vector<ElementId> targets;

  size_t Degree(ElementId element) const {
    return offsets[element + 1] - offsets[element];
  }
};

/// A CSG instance (Definition 2): elements per node, links per directed
/// relationship. Instances are stored separately from the graph and are
/// keyed purely by ids, so a graph can have many instances.
///
/// Elements are dense ids (see ElementId). A table node stores only its
/// row count. An attribute node stores its dictionary: the distinct
/// non-null values of the attribute by Value equality (so INTEGER 3 and
/// REAL 3.0 are one element), in first-occurrence order. Every directed
/// relationship stores its links as one CsrLinks pair; SetLinks fills
/// the forward half and derives the inverse half by counting sort.
class CsgInstance {
 public:
  explicit CsgInstance(size_t node_count, size_t relationship_count);

  /// Declares the `rows` tuple elements of a table node.
  void SetTableElements(NodeId node, size_t rows);

  /// Declares the elements of an attribute node: element i stands for
  /// `dictionary[i]`. The values must be pairwise unequal.
  void SetDictionary(NodeId node, std::vector<Value> dictionary);

  /// Installs the links of the forward half `forward_id` (as returned by
  /// AddRelationshipPair) and their mirror on its inverse. Both end nodes
  /// must already hold their elements; `links.offsets` has one entry per
  /// `from` element plus one.
  void SetLinks(const CsgGraph& graph, RelationshipId forward_id,
                CsrLinks links);

  size_t ElementCount(NodeId node) const { return element_counts_[node]; }

  /// The value `element` of `node` stands for: its dictionary entry, or
  /// the tuple id Value::Integer(row) for table nodes.
  Value ElementValue(NodeId node, ElementId element) const;

  /// An attribute node's values in element-id order; empty for table
  /// nodes.
  const std::vector<Value>& Dictionary(NodeId node) const {
    return dictionaries_[node];
  }

  size_t LinkCount(RelationshipId rel) const {
    return links_[rel].targets.size();
  }

  /// Number of links leaving each element of the relationship's `from`
  /// node, indexed by element id; elements without links have degree 0
  /// (this is what makes missing mandatory links — NOT NULL violations —
  /// observable).
  std::vector<size_t> OutDegrees(const CsgGraph& graph,
                                 RelationshipId rel) const;

  /// The tightest interval containing every element's out-degree; 0..0
  /// for relationships whose from node has no elements.
  Cardinality ActualCardinality(const CsgGraph& graph,
                                RelationshipId rel) const;

  /// Number of `from`-elements whose out-degree is not admitted by
  /// `prescribed` — the per-constraint violation count of Table 3.
  size_t CountViolations(const CsgGraph& graph, RelationshipId rel,
                         const Cardinality& prescribed) const;

  /// Composition over a path of directed relationships: for each element
  /// of the path's start node (indexed by element id), the number of
  /// *distinct* reachable elements of the end node. Empty for an empty
  /// path.
  std::vector<size_t> PathOutDegrees(
      const CsgGraph& graph, const std::vector<RelationshipId>& path) const;

  /// The values of the distinct end-node elements reachable from element
  /// `start` of the path's start node, sorted. A path whose last hop goes
  /// from an FK attribute to its referenced attribute reports the FK
  /// side's values (3, not the referenced 3.0). Empty for an empty path.
  std::vector<Value> ReachableViaPath(const CsgGraph& graph,
                                      const std::vector<RelationshipId>& path,
                                      ElementId start) const;

  Cardinality ActualPathCardinality(
      const CsgGraph& graph, const std::vector<RelationshipId>& path) const;

  size_t CountPathViolations(const CsgGraph& graph,
                             const std::vector<RelationshipId>& path,
                             const Cardinality& prescribed) const;

 private:
  std::vector<size_t> element_counts_;
  // Per node: the dictionary of an attribute node; empty for table nodes.
  std::vector<std::vector<Value>> dictionaries_;
  std::vector<bool> is_table_;
  // Per directed relationship.
  std::vector<CsrLinks> links_;
};

}  // namespace efes

#endif  // EFES_CSG_GRAPH_H_
