#include "efes/csg/builder.h"

#include <optional>
#include <unordered_map>

#include "efes/common/metrics.h"
#include "efes/telemetry/trace.h"

namespace efes {

namespace {

/// Ids of the forward (table->attribute) relationship per attribute, plus
/// the equality relationships, so the instance builder can attach links.
struct GraphLayout {
  // (relation, attribute index) -> forward relationship id.
  std::unordered_map<std::string, std::vector<RelationshipId>>
      attribute_relationships;
  // One entry per single-column FK: child attr node, parent attr node,
  // forward equality relationship id.
  struct EqualityEdge {
    NodeId child_attribute;
    NodeId parent_attribute;
    RelationshipId relationship;
  };
  std::vector<EqualityEdge> equalities;
};

/// Interns values into a dictionary by Value equality and hash (so
/// INTEGER 3 and REAL 3.0 share an id), assigning dense ids in
/// first-occurrence order. Open addressing with linear probing over a
/// power-of-two slot array sized once per dictionary; each slot keeps the
/// id plus the high hash bits, so most mismatches skip the Value compare.
class ValueInterner {
 public:
  /// Starts an empty dictionary with room for `capacity` distinct values.
  void Reset(size_t capacity) {
    values_.clear();
    values_.reserve(capacity);
    size_t slots = 16;
    while (slots < 2 * capacity) slots *= 2;
    slots_.assign(slots, Slot{});
    mask_ = slots - 1;
  }

  /// The id of `value`, interning it first when new.
  ElementId Intern(const Value& value) {
    const size_t hash = value.Hash();
    Slot& slot = slots_[Probe(value, hash)];
    if (slot.id_plus_one == 0) {
      values_.push_back(value);
      slot = Slot{static_cast<uint32_t>(values_.size()), Tag(hash)};
    }
    return slot.id_plus_one - 1;
  }

  /// The id of the interned value equal to `value`, if any.
  std::optional<ElementId> Find(const Value& value) const {
    const Slot& slot = slots_[Probe(value, value.Hash())];
    if (slot.id_plus_one == 0) return std::nullopt;
    return slot.id_plus_one - 1;
  }

  /// Hands over the dictionary, in id order.
  std::vector<Value> TakeDictionary() { return std::move(values_); }

 private:
  struct Slot {
    uint32_t id_plus_one = 0;  // 0 marks an empty slot
    uint32_t tag = 0;
  };
  static uint32_t Tag(size_t hash) {
    return static_cast<uint32_t>(static_cast<uint64_t>(hash) >> 32);
  }

  /// The slot holding a value equal to `value`, else the empty slot where
  /// it belongs. The table is never full: it has twice the capacity.
  size_t Probe(const Value& value, size_t hash) const {
    for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.id_plus_one == 0 ||
          (slot.tag == Tag(hash) && values_[slot.id_plus_one - 1] == value)) {
        return i;
      }
    }
  }

  std::vector<Value> values_;
  std::vector<Slot> slots_;
  size_t mask_ = 0;
};

CsgGraph BuildGraphWithLayout(const Database& database,
                              GraphLayout* layout) {
  const Schema& schema = database.schema();
  CsgGraph graph;

  std::unordered_map<std::string, NodeId> table_nodes;
  // relation -> attribute name -> node id
  std::unordered_map<std::string, std::unordered_map<std::string, NodeId>>
      attribute_nodes;

  for (const RelationDef& rel : schema.relations()) {
    NodeId table = graph.AddTableNode(rel.name());
    table_nodes[rel.name()] = table;
    std::vector<RelationshipId>& rel_ids =
        layout->attribute_relationships[rel.name()];
    for (const AttributeDef& attr : rel.attributes()) {
      NodeId attribute =
          graph.AddAttributeNode(rel.name(), attr.name, attr.type);
      attribute_nodes[rel.name()][attr.name] = attribute;

      Cardinality forward = schema.IsNotNullable(rel.name(), attr.name)
                                ? Cardinality::Exactly(1)
                                : Cardinality::Optional();
      Cardinality backward = schema.IsUniqueAttribute(rel.name(), attr.name)
                                 ? Cardinality::Exactly(1)
                                 : Cardinality::AtLeast(1);
      rel_ids.push_back(graph.AddRelationshipPair(
          table, attribute, CsgEdgeKind::kAttribute, forward, backward));
    }
  }

  // Foreign keys become equality relationships between attribute nodes.
  // Composite FKs are represented column-wise (the collateral operator of
  // the algebra recovers the n-ary semantics).
  for (const Constraint& c : schema.constraints()) {
    if (c.kind != ConstraintKind::kForeignKey) continue;
    for (size_t i = 0; i < c.attributes.size(); ++i) {
      NodeId child = attribute_nodes[c.relation][c.attributes[i]];
      NodeId parent =
          attribute_nodes[c.referenced_relation][c.referenced_attributes[i]];
      RelationshipId rel_id = graph.AddRelationshipPair(
          child, parent, CsgEdgeKind::kEquality, Cardinality::Exactly(1),
          Cardinality::Optional());
      layout->equalities.push_back(
          GraphLayout::EqualityEdge{child, parent, rel_id});
    }
  }

  return graph;
}

}  // namespace

CsgGraph BuildCsgGraph(const Database& database) {
  GraphLayout layout;
  return BuildGraphWithLayout(database, &layout);
}

Csg BuildCsg(const Database& database) {
  static Histogram& build_ms =
      MetricsRegistry::Global().GetHistogram("csg.build.ms");
  TraceSpan span("csg.build", nullptr, &build_ms);
  GraphLayout layout;
  CsgGraph graph = BuildGraphWithLayout(database, &layout);
  CsgInstance instance(graph.nodes().size(), graph.relationships().size());

  ValueInterner interner;
  for (const Table& table : database.tables()) {
    auto table_node_result = graph.FindTableNode(table.name());
    if (!table_node_result.ok()) continue;
    const size_t rows = table.row_count();
    instance.SetTableElements(*table_node_result, rows);
    const std::vector<RelationshipId>& attr_rels =
        layout.attribute_relationships[table.name()];

    // Each column becomes its attribute node's dictionary plus the
    // tuple -> value links: one target per non-null cell.
    for (size_t c = 0; c < table.column_count(); ++c) {
      const std::vector<Value>& column = table.column(c);
      interner.Reset(rows);
      CsrLinks links;
      links.offsets.resize(rows + 1);
      links.targets.reserve(rows);
      for (size_t r = 0; r < rows; ++r) {
        if (!column[r].is_null()) {
          links.targets.push_back(interner.Intern(column[r]));
        }
        links.offsets[r + 1] = static_cast<uint32_t>(links.targets.size());
      }
      instance.SetDictionary(graph.relationship(attr_rels[c]).to,
                             interner.TakeDictionary());
      instance.SetLinks(graph, attr_rels[c], std::move(links));
    }
  }

  // Equality links: each child attribute value links to the equal parent
  // value when it exists (dangling FK values simply lack the link, which
  // surfaces as a violation of the prescribed κ = 1).
  for (const GraphLayout::EqualityEdge& eq : layout.equalities) {
    const std::vector<Value>& parents =
        instance.Dictionary(eq.parent_attribute);
    interner.Reset(parents.size());
    for (const Value& parent : parents) interner.Intern(parent);
    const std::vector<Value>& children =
        instance.Dictionary(eq.child_attribute);
    CsrLinks links;
    links.offsets.resize(children.size() + 1);
    for (size_t c = 0; c < children.size(); ++c) {
      std::optional<ElementId> parent = interner.Find(children[c]);
      if (parent.has_value()) links.targets.push_back(*parent);
      links.offsets[c + 1] = static_cast<uint32_t>(links.targets.size());
    }
    instance.SetLinks(graph, eq.relationship, std::move(links));
  }

  return Csg(std::move(graph), std::move(instance));
}

}  // namespace efes
