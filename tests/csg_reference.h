// The Value-keyed CSG instance: the straightforward reading of
// Definition 2, kept as the differential oracle for the dense-id
// CsgInstance (efes/csg/graph.h). Every element is stored as its Value
// and every relationship as a map from element to linked elements, so
// the oracle's answers follow directly from the definitions.

#ifndef EFES_TESTS_CSG_REFERENCE_H_
#define EFES_TESTS_CSG_REFERENCE_H_

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "efes/csg/graph.h"
#include "efes/relational/database.h"

namespace efes {

/// The Value-keyed CSG instance (Definition 2): elements per node, links
/// per directed relationship, every element and link held as a Value.
class ReferenceCsgInstance {
 public:
  explicit ReferenceCsgInstance(size_t node_count, size_t relationship_count);

  /// Registers an element of `node`. Duplicate registrations are ignored
  /// (node elements are sets).
  void AddElement(NodeId node, const Value& element);

  /// Adds the link (from_element, to_element) to the forward relationship
  /// `forward_id` and its mirror to the inverse relationship. The caller
  /// must pass the id of the forward half created by AddRelationshipPair
  /// together with the owning graph.
  void AddLink(const CsgGraph& graph, RelationshipId forward_id,
               const Value& from_element, const Value& to_element);

  size_t ElementCount(NodeId node) const {
    return elements_[node].size();
  }
  const std::vector<Value>& ElementsOf(NodeId node) const {
    return element_order_[node];
  }
  size_t LinkCount(RelationshipId rel) const;

  /// Number of links leaving each element of the relationship's `from`
  /// node; elements without links appear with degree 0 (this is what
  /// makes missing mandatory links — NOT NULL violations — observable).
  std::unordered_map<Value, size_t, ValueHash> OutDegrees(
      const CsgGraph& graph, RelationshipId rel) const;

  /// The tightest interval containing every element's out-degree; 0..0
  /// for relationships whose from node has no elements.
  Cardinality ActualCardinality(const CsgGraph& graph,
                                RelationshipId rel) const;

  /// Number of `from`-elements whose out-degree is not admitted by
  /// `prescribed` — the per-constraint violation count of Table 3.
  size_t CountViolations(const CsgGraph& graph, RelationshipId rel,
                         const Cardinality& prescribed) const;

  /// Composition over a path of directed relationships: for each element
  /// of the path's start node, the number of *distinct* reachable
  /// elements of the end node.
  std::unordered_map<Value, size_t, ValueHash> PathOutDegrees(
      const CsgGraph& graph, const std::vector<RelationshipId>& path) const;

  /// The distinct end-node elements reachable from `start` along `path`
  /// (deterministically sorted). Empty path yields {start}.
  std::vector<Value> ReachableViaPath(
      const CsgGraph& graph, const std::vector<RelationshipId>& path,
      const Value& start) const;

  Cardinality ActualPathCardinality(
      const CsgGraph& graph, const std::vector<RelationshipId>& path) const;

  size_t CountPathViolations(const CsgGraph& graph,
                             const std::vector<RelationshipId>& path,
                             const Cardinality& prescribed) const;

 private:
  // Per node: element set (for dedup) plus insertion order (for
  // deterministic iteration).
  std::vector<std::unordered_map<Value, bool, ValueHash>> elements_;
  std::vector<std::vector<Value>> element_order_;
  // Per directed relationship: adjacency from element to linked elements.
  std::vector<std::unordered_map<Value, std::vector<Value>, ValueHash>>
      links_;
};

/// Fills the oracle for `database` over `graph`, which must be
/// BuildCsgGraph(database) (or the graph of BuildCsg(database)):
/// tuple ids Value::Integer(row) for table nodes, one element per distinct
/// cell value, and equality links between equal FK and parent values.
ReferenceCsgInstance BuildReferenceInstance(const CsgGraph& graph,
                                            const Database& database);

}  // namespace efes

#endif  // EFES_TESTS_CSG_REFERENCE_H_
