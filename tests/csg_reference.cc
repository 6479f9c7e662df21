#include "csg_reference.h"

#include <algorithm>
#include <unordered_set>

namespace efes {

ReferenceCsgInstance::ReferenceCsgInstance(size_t node_count,
                                           size_t relationship_count)
    : elements_(node_count),
      element_order_(node_count),
      links_(relationship_count) {}

void ReferenceCsgInstance::AddElement(NodeId node, const Value& element) {
  auto [it, inserted] = elements_[node].emplace(element, true);
  if (inserted) element_order_[node].push_back(element);
}

void ReferenceCsgInstance::AddLink(const CsgGraph& graph,
                                   RelationshipId forward_id,
                                   const Value& from_element,
                                   const Value& to_element) {
  const CsgRelationship& rel = graph.relationship(forward_id);
  links_[forward_id][from_element].push_back(to_element);
  links_[rel.inverse][to_element].push_back(from_element);
}

size_t ReferenceCsgInstance::LinkCount(RelationshipId rel) const {
  size_t count = 0;
  for (const auto& [element, targets] : links_[rel]) {
    count += targets.size();
  }
  return count;
}

std::unordered_map<Value, size_t, ValueHash>
ReferenceCsgInstance::OutDegrees(const CsgGraph& graph,
                                 RelationshipId rel) const {
  std::unordered_map<Value, size_t, ValueHash> degrees;
  NodeId from = graph.relationship(rel).from;
  const auto& adjacency = links_[rel];
  for (const Value& element : element_order_[from]) {
    auto it = adjacency.find(element);
    degrees[element] = it == adjacency.end() ? 0 : it->second.size();
  }
  return degrees;
}

Cardinality ReferenceCsgInstance::ActualCardinality(
    const CsgGraph& graph, RelationshipId rel) const {
  auto degrees = OutDegrees(graph, rel);
  if (degrees.empty()) return Cardinality::Exactly(0);
  uint64_t lo = Cardinality::kUnbounded;
  uint64_t hi = 0;
  for (const auto& [element, degree] : degrees) {
    lo = std::min<uint64_t>(lo, degree);
    hi = std::max<uint64_t>(hi, degree);
  }
  return Cardinality::Between(lo, hi);
}

size_t ReferenceCsgInstance::CountViolations(
    const CsgGraph& graph, RelationshipId rel,
    const Cardinality& prescribed) const {
  size_t violations = 0;
  for (const auto& [element, degree] : OutDegrees(graph, rel)) {
    if (!prescribed.Contains(degree)) ++violations;
  }
  return violations;
}

std::unordered_map<Value, size_t, ValueHash>
ReferenceCsgInstance::PathOutDegrees(
    const CsgGraph& graph, const std::vector<RelationshipId>& path) const {
  std::unordered_map<Value, size_t, ValueHash> degrees;
  if (path.empty()) return degrees;
  NodeId start = graph.relationship(path.front()).from;
  for (const Value& element : element_order_[start]) {
    // Walk the path breadth-first, deduplicating at every hop: the
    // composition of relations relates an element to the *set* of
    // reachable end elements.
    std::unordered_set<Value, ValueHash> frontier = {element};
    for (RelationshipId rel : path) {
      std::unordered_set<Value, ValueHash> next;
      for (const Value& v : frontier) {
        auto it = links_[rel].find(v);
        if (it == links_[rel].end()) continue;
        next.insert(it->second.begin(), it->second.end());
      }
      frontier = std::move(next);
      if (frontier.empty()) break;
    }
    degrees[element] = frontier.size();
  }
  return degrees;
}

std::vector<Value> ReferenceCsgInstance::ReachableViaPath(
    const CsgGraph& graph, const std::vector<RelationshipId>& path,
    const Value& start) const {
  (void)graph;
  std::unordered_set<Value, ValueHash> frontier = {start};
  for (RelationshipId rel : path) {
    std::unordered_set<Value, ValueHash> next;
    for (const Value& v : frontier) {
      auto it = links_[rel].find(v);
      if (it == links_[rel].end()) continue;
      next.insert(it->second.begin(), it->second.end());
    }
    frontier = std::move(next);
    if (frontier.empty()) break;
  }
  std::vector<Value> result(frontier.begin(), frontier.end());
  std::sort(result.begin(), result.end());
  return result;
}

Cardinality ReferenceCsgInstance::ActualPathCardinality(
    const CsgGraph& graph, const std::vector<RelationshipId>& path) const {
  auto degrees = PathOutDegrees(graph, path);
  if (degrees.empty()) return Cardinality::Exactly(0);
  uint64_t lo = Cardinality::kUnbounded;
  uint64_t hi = 0;
  for (const auto& [element, degree] : degrees) {
    lo = std::min<uint64_t>(lo, degree);
    hi = std::max<uint64_t>(hi, degree);
  }
  return Cardinality::Between(lo, hi);
}

size_t ReferenceCsgInstance::CountPathViolations(
    const CsgGraph& graph, const std::vector<RelationshipId>& path,
    const Cardinality& prescribed) const {
  size_t violations = 0;
  for (const auto& [element, degree] : PathOutDegrees(graph, path)) {
    if (!prescribed.Contains(degree)) ++violations;
  }
  return violations;
}

ReferenceCsgInstance BuildReferenceInstance(const CsgGraph& graph,
                                            const Database& database) {
  ReferenceCsgInstance instance(graph.nodes().size(),
                                graph.relationships().size());
  for (const Table& table : database.tables()) {
    auto table_node_result = graph.FindTableNode(table.name());
    if (!table_node_result.ok()) continue;
    NodeId table_node = *table_node_result;
    // A table node's outgoing relationships are its attribute
    // relationships, created in column order.
    const std::vector<RelationshipId>& attr_rels =
        graph.OutgoingOf(table_node);

    for (size_t r = 0; r < table.row_count(); ++r) {
      Value tuple_id = Value::Integer(static_cast<int64_t>(r));
      instance.AddElement(table_node, tuple_id);
      for (size_t c = 0; c < table.column_count(); ++c) {
        const Value& cell = table.at(r, c);
        if (cell.is_null()) continue;
        const CsgRelationship& rel = graph.relationship(attr_rels[c]);
        instance.AddElement(rel.to, cell);
        instance.AddLink(graph, attr_rels[c], tuple_id, cell);
      }
    }
  }

  // Equality links: each child attribute value links to the equal parent
  // value when it exists. The forward (FK -> parent) half of each pair is
  // the one with the smaller id.
  for (const CsgRelationship& eq : graph.relationships()) {
    if (eq.kind != CsgEdgeKind::kEquality || eq.id > eq.inverse) continue;
    std::unordered_set<Value, ValueHash> parent_values(
        instance.ElementsOf(eq.to).begin(), instance.ElementsOf(eq.to).end());
    for (const Value& child_value : instance.ElementsOf(eq.from)) {
      if (parent_values.count(child_value) > 0) {
        instance.AddLink(graph, eq.id, child_value, child_value);
      }
    }
  }
  return instance;
}

}  // namespace efes
