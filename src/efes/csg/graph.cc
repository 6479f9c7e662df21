#include "efes/csg/graph.h"

#include <algorithm>
#include <sstream>

namespace efes {

std::string CsgNode::QualifiedName() const {
  if (kind == CsgNodeKind::kTable) return relation;
  return relation + "." + attribute;
}

NodeId CsgGraph::AddTableNode(std::string relation) {
  CsgNode node;
  node.id = nodes_.size();
  node.kind = CsgNodeKind::kTable;
  node.relation = std::move(relation);
  nodes_.push_back(std::move(node));
  adjacency_.emplace_back();
  return nodes_.back().id;
}

NodeId CsgGraph::AddAttributeNode(std::string relation,
                                  std::string attribute, DataType type) {
  CsgNode node;
  node.id = nodes_.size();
  node.kind = CsgNodeKind::kAttribute;
  node.relation = std::move(relation);
  node.attribute = std::move(attribute);
  node.type = type;
  nodes_.push_back(std::move(node));
  adjacency_.emplace_back();
  return nodes_.back().id;
}

RelationshipId CsgGraph::AddRelationshipPair(NodeId from, NodeId to,
                                             CsgEdgeKind kind,
                                             const Cardinality& forward,
                                             const Cardinality& backward) {
  RelationshipId forward_id = relationships_.size();
  RelationshipId backward_id = forward_id + 1;
  relationships_.push_back(
      CsgRelationship{forward_id, from, to, kind, forward, backward_id});
  relationships_.push_back(
      CsgRelationship{backward_id, to, from, kind, backward, forward_id});
  adjacency_[from].push_back(forward_id);
  adjacency_[to].push_back(backward_id);
  return forward_id;
}

void CsgGraph::SetPrescribed(RelationshipId id,
                             const Cardinality& cardinality) {
  relationships_[id].prescribed = cardinality;
}

Result<NodeId> CsgGraph::FindTableNode(std::string_view relation) const {
  for (const CsgNode& node : nodes_) {
    if (node.kind == CsgNodeKind::kTable && node.relation == relation) {
      return node.id;
    }
  }
  return Status::NotFound("no table node for relation '" +
                          std::string(relation) + "'");
}

Result<NodeId> CsgGraph::FindAttributeNode(
    std::string_view relation, std::string_view attribute) const {
  for (const CsgNode& node : nodes_) {
    if (node.kind == CsgNodeKind::kAttribute && node.relation == relation &&
        node.attribute == attribute) {
      return node.id;
    }
  }
  return Status::NotFound("no attribute node for '" +
                          std::string(relation) + "." +
                          std::string(attribute) + "'");
}

std::string CsgGraph::DescribeRelationship(RelationshipId id) const {
  const CsgRelationship& rel = relationships_[id];
  std::ostringstream oss;
  oss << node(rel.from).QualifiedName()
      << (rel.kind == CsgEdgeKind::kEquality ? " ==> " : " -> ")
      << node(rel.to).QualifiedName() << " [" << rel.prescribed.ToString()
      << "]";
  return oss.str();
}

std::string CsgGraph::ToText() const {
  std::ostringstream oss;
  for (const CsgNode& node : nodes_) {
    oss << (node.kind == CsgNodeKind::kTable ? "[table] " : "(attr)  ")
        << node.QualifiedName();
    if (node.kind == CsgNodeKind::kAttribute) {
      oss << " : " << DataTypeToString(node.type);
    }
    oss << "\n";
    for (RelationshipId rel_id : adjacency_[node.id]) {
      oss << "    " << DescribeRelationship(rel_id) << "\n";
    }
  }
  return oss.str();
}

CsgInstance::CsgInstance(size_t node_count, size_t relationship_count)
    : element_counts_(node_count, 0),
      dictionaries_(node_count),
      is_table_(node_count, false),
      links_(relationship_count) {}

void CsgInstance::SetTableElements(NodeId node, size_t rows) {
  element_counts_[node] = rows;
  is_table_[node] = true;
  dictionaries_[node].clear();
}

void CsgInstance::SetDictionary(NodeId node, std::vector<Value> dictionary) {
  element_counts_[node] = dictionary.size();
  is_table_[node] = false;
  dictionaries_[node] = std::move(dictionary);
}

void CsgInstance::SetLinks(const CsgGraph& graph, RelationshipId forward_id,
                           CsrLinks links) {
  const CsgRelationship& rel = graph.relationship(forward_id);
  // Counting sort by target: count, prefix-sum, then scatter the sources
  // in ascending order so every inverse target list is sorted.
  CsrLinks inverse;
  inverse.offsets.assign(element_counts_[rel.to] + 1, 0);
  for (ElementId target : links.targets) ++inverse.offsets[target + 1];
  for (size_t i = 1; i < inverse.offsets.size(); ++i) {
    inverse.offsets[i] += inverse.offsets[i - 1];
  }
  inverse.targets.resize(links.targets.size());
  std::vector<uint32_t> cursor(inverse.offsets.begin(),
                               inverse.offsets.end() - 1);
  for (ElementId from = 0; from + 1 < links.offsets.size(); ++from) {
    for (uint32_t i = links.offsets[from]; i < links.offsets[from + 1];
         ++i) {
      inverse.targets[cursor[links.targets[i]]++] = from;
    }
  }
  links_[forward_id] = std::move(links);
  links_[rel.inverse] = std::move(inverse);
}

Value CsgInstance::ElementValue(NodeId node, ElementId element) const {
  if (is_table_[node]) return Value::Integer(static_cast<int64_t>(element));
  return dictionaries_[node][element];
}

namespace {

/// The tightest interval containing every degree; 0..0 when empty.
Cardinality Envelope(const std::vector<size_t>& degrees) {
  if (degrees.empty()) return Cardinality::Exactly(0);
  auto [lo, hi] = std::minmax_element(degrees.begin(), degrees.end());
  return Cardinality::Between(*lo, *hi);
}

size_t CountOutside(const std::vector<size_t>& degrees,
                    const Cardinality& prescribed) {
  size_t violations = 0;
  for (size_t degree : degrees) {
    if (!prescribed.Contains(degree)) ++violations;
  }
  return violations;
}

}  // namespace

std::vector<size_t> CsgInstance::OutDegrees(const CsgGraph& graph,
                                            RelationshipId rel) const {
  std::vector<size_t> degrees(element_counts_[graph.relationship(rel).from]);
  const CsrLinks& links = links_[rel];
  // A relationship without installed links leaves every degree at 0.
  if (links.offsets.empty()) return degrees;
  for (ElementId e = 0; e < degrees.size(); ++e) degrees[e] = links.Degree(e);
  return degrees;
}

Cardinality CsgInstance::ActualCardinality(const CsgGraph& graph,
                                           RelationshipId rel) const {
  return Envelope(OutDegrees(graph, rel));
}

size_t CsgInstance::CountViolations(const CsgGraph& graph,
                                    RelationshipId rel,
                                    const Cardinality& prescribed) const {
  return CountOutside(OutDegrees(graph, rel), prescribed);
}

std::vector<size_t> CsgInstance::PathOutDegrees(
    const CsgGraph& graph, const std::vector<RelationshipId>& path) const {
  if (path.empty()) return {};
  std::vector<size_t> degrees(
      element_counts_[graph.relationship(path.front()).from]);
  // Walk the path breadth-first from every start element, deduplicating
  // at every hop: the composition of relations relates an element to the
  // *set* of reachable end elements. Each hop owns a stamp array over its
  // end node; stamping with the start element's generation marks an
  // element as seen without clearing the array between starts.
  std::vector<std::vector<uint32_t>> seen(path.size());
  for (size_t hop = 0; hop < path.size(); ++hop) {
    seen[hop].assign(element_counts_[graph.relationship(path[hop]).to], 0);
  }
  std::vector<ElementId> frontier;
  std::vector<ElementId> next;
  for (ElementId start = 0; start < degrees.size(); ++start) {
    const uint32_t generation = start + 1;
    frontier.assign(1, start);
    for (size_t hop = 0; hop < path.size() && !frontier.empty(); ++hop) {
      const CsrLinks& links = links_[path[hop]];
      if (links.offsets.empty()) {
        frontier.clear();
        break;
      }
      std::vector<uint32_t>& stamps = seen[hop];
      next.clear();
      for (ElementId element : frontier) {
        for (uint32_t i = links.offsets[element];
             i < links.offsets[element + 1]; ++i) {
          const ElementId target = links.targets[i];
          if (stamps[target] != generation) {
            stamps[target] = generation;
            next.push_back(target);
          }
        }
      }
      frontier.swap(next);
    }
    degrees[start] = frontier.size();
  }
  return degrees;
}

std::vector<Value> CsgInstance::ReachableViaPath(
    const CsgGraph& graph, const std::vector<RelationshipId>& path,
    ElementId start) const {
  if (path.empty()) return {};
  // An equality link joins two equal values; the FK side's value is the
  // one the walk carries across it. So a path ending on the FK -> parent
  // half (the forward half, which has the smaller id) stops one hop
  // early and reports the FK elements that have the link.
  const CsgRelationship& last = graph.relationship(path.back());
  const bool report_fk_side =
      last.kind == CsgEdgeKind::kEquality && last.id < last.inverse;
  const size_t hops = report_fk_side ? path.size() - 1 : path.size();
  std::vector<ElementId> frontier = {start};
  std::vector<ElementId> next;
  for (size_t hop = 0; hop < hops && !frontier.empty(); ++hop) {
    const CsrLinks& links = links_[path[hop]];
    next.clear();
    if (!links.offsets.empty()) {
      for (ElementId element : frontier) {
        next.insert(next.end(), links.targets.begin() + links.offsets[element],
                    links.targets.begin() + links.offsets[element + 1]);
      }
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    frontier.swap(next);
  }
  const NodeId end = report_fk_side ? last.from : last.to;
  const CsrLinks& last_links = links_[path.back()];
  std::vector<Value> values;
  values.reserve(frontier.size());
  for (ElementId element : frontier) {
    if (report_fk_side &&
        (last_links.offsets.empty() || last_links.Degree(element) == 0)) {
      continue;
    }
    values.push_back(ElementValue(end, element));
  }
  std::sort(values.begin(), values.end());
  return values;
}

Cardinality CsgInstance::ActualPathCardinality(
    const CsgGraph& graph, const std::vector<RelationshipId>& path) const {
  return Envelope(PathOutDegrees(graph, path));
}

size_t CsgInstance::CountPathViolations(
    const CsgGraph& graph, const std::vector<RelationshipId>& path,
    const Cardinality& prescribed) const {
  return CountOutside(PathOutDegrees(graph, path), prescribed);
}

}  // namespace efes
