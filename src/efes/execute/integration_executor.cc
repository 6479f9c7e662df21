#include "efes/execute/integration_executor.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "efes/common/fault.h"
#include "efes/common/string_util.h"
#include "efes/csg/builder.h"
#include "efes/csg/path_search.h"
#include "efes/telemetry/log.h"
#include "efes/common/metrics.h"
#include "efes/telemetry/trace.h"

namespace efes {

std::string ExecutionReport::ToString() const {
  std::ostringstream oss;
  oss << tuples_integrated << " tuples integrated; merged values on "
      << values_merged << " tuples (kept-any on " << values_kept_any
      << "); " << tuples_added << " tuples created for detached values ("
      << values_dropped_detached << " detached values dropped); "
      << values_added << " mandatory values filled; " << tuples_rejected
      << " tuples rejected; " << values_converted
      << " values converted best-effort (" << values_dropped_uncastable
      << " dropped); " << tuples_aggregated << " duplicate tuples"
      << " aggregated; " << dangling_repaired
      << " dangling references repaired";
  return oss.str();
}

namespace {

/// Placeholder of the attribute's type for invented mandatory values.
Value Placeholder(DataType type, const std::string& missing_text) {
  switch (type) {
    case DataType::kInteger:
      return Value::Integer(0);
    case DataType::kReal:
      return Value::Real(0.0);
    case DataType::kBoolean:
      return Value::Boolean(false);
    default:
      return Value::Text(missing_text);
  }
}

/// Best-effort conversion of an uncastable value: pull the first numeric
/// substring for numeric targets, render as text otherwise — the
/// executor-side stand-in for a conversion script.
Value BestEffortConvert(const Value& value, DataType target) {
  std::string text = value.ToString();
  if (target == DataType::kInteger || target == DataType::kReal) {
    size_t start = text.find_first_of("0123456789");
    if (start == std::string::npos) return Value::Null();
    bool negative = start > 0 && text[start - 1] == '-';
    size_t end = start;
    while (end < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[end])) ||
            (target == DataType::kReal && text[end] == '.'))) {
      ++end;
    }
    std::string number = text.substr(start, end - start);
    if (target == DataType::kInteger) {
      auto parsed = ParseInt64(number);
      if (!parsed.has_value()) return Value::Null();
      return Value::Integer(negative ? -*parsed : *parsed);
    }
    auto parsed = ParseDouble(number);
    if (!parsed.has_value()) return Value::Null();
    return Value::Real(negative ? -*parsed : *parsed);
  }
  if (target == DataType::kBoolean) {
    return Value::Boolean(!text.empty());
  }
  return Value::Text(std::move(text));
}

/// Target relations receiving data, parents before children (Kahn over
/// the FK graph restricted to mapped relations).
std::vector<std::string> TopologicalTargetOrder(
    const Schema& target_schema, const std::vector<std::string>& mapped) {
  std::set<std::string> mapped_set(mapped.begin(), mapped.end());
  std::map<std::string, std::set<std::string>> parents_of;
  std::map<std::string, size_t> pending;
  for (const std::string& relation : mapped) {
    pending[relation] = 0;
  }
  for (const Constraint& c : target_schema.constraints()) {
    if (c.kind != ConstraintKind::kForeignKey) continue;
    if (mapped_set.count(c.relation) == 0 ||
        mapped_set.count(c.referenced_relation) == 0 ||
        c.relation == c.referenced_relation) {
      continue;
    }
    if (parents_of[c.relation].insert(c.referenced_relation).second) {
      ++pending[c.relation];
    }
  }
  std::vector<std::string> order;
  std::vector<std::string> ready;
  for (const std::string& relation : mapped) {
    if (pending[relation] == 0) ready.push_back(relation);
  }
  while (!ready.empty()) {
    std::string relation = ready.front();
    ready.erase(ready.begin());
    order.push_back(relation);
    for (auto& [child, parents] : parents_of) {
      if (parents.erase(relation) > 0 && --pending[child] == 0) {
        ready.push_back(child);
      }
    }
  }
  // Cycles: append the rest in input order.
  for (const std::string& relation : mapped) {
    if (std::find(order.begin(), order.end(), relation) == order.end()) {
      order.push_back(relation);
    }
  }
  return order;
}

}  // namespace

Result<Database> IntegrationExecutor::Execute(
    const IntegrationScenario& scenario, ExecutionReport* report) const {
  static Histogram& execute_ms =
      MetricsRegistry::Global().GetHistogram("execute.run.ms");
  TraceSpan span("execute.run", nullptr, &execute_ms);
  MetricsRegistry::Global().GetCounter("execute.run.count").Increment();
  EFES_RETURN_IF_ERROR(CheckFaultPoint("execute.run"));
  EFES_RETURN_IF_ERROR(scenario.Validate());
  ExecutionReport local_report;
  ExecutionReport& counters = report != nullptr ? *report : local_report;
  counters = ExecutionReport{};
  bool high = options_.quality == ExpectedQuality::kHighQuality;

  EFES_ASSIGN_OR_RETURN(Database result,
                        Database::Create(scenario.target.schema()));
  const Schema& target_schema = result.schema();

  // Pre-existing target data participates in the combined instance.
  for (const Table& table : scenario.target.tables()) {
    EFES_ASSIGN_OR_RETURN(Table * destination,
                          result.mutable_table(table.name()));
    for (size_t r = 0; r < table.row_count(); ++r) {
      EFES_RETURN_IF_ERROR(destination->AppendRow(table.Row(r)));
    }
  }

  // Next surrogate id per target relation with a generated single-int PK.
  std::map<std::string, int64_t> next_id;
  auto surrogate_pk = [&](const std::string& relation)
      -> std::optional<std::string> {
    std::vector<std::string> pk = target_schema.PrimaryKeyOf(relation);
    if (pk.size() != 1) return std::nullopt;
    auto rel = target_schema.relation(relation);
    if (!rel.ok()) return std::nullopt;
    auto attr = (*rel)->Attribute(pk[0]);
    if (!attr.ok() || attr->type != DataType::kInteger) return std::nullopt;
    return pk[0];
  };
  for (const Table& table : result.tables()) {
    auto pk = surrogate_pk(table.name());
    if (!pk.has_value()) continue;
    int64_t max_id = 0;
    auto column = table.ColumnByName(*pk);
    if (column.ok()) {
      for (const Value& value : **column) {
        if (value.type() == DataType::kInteger) {
          max_id = std::max(max_id, value.AsInteger());
        }
      }
    }
    next_id[table.name()] = max_id + 1;
  }

  for (const SourceBinding& source : scenario.sources) {
    Csg csg = BuildCsg(source.database);
    std::vector<std::string> order = TopologicalTargetOrder(
        target_schema, source.correspondences.TargetRelations());

    // Per target relation: source anchor key -> assigned target PK value.
    std::map<std::string, std::unordered_map<Value, Value, ValueHash>>
        key_maps;

    for (const std::string& target_relation : order) {
      // Anchor source relation (relation correspondence, or the first
      // attribute correspondence's relation as fallback).
      std::string anchor;
      auto relation_corr =
          source.correspondences.RelationCorrespondenceFor(target_relation);
      if (relation_corr.ok()) {
        anchor = relation_corr->source_relation;
      } else {
        std::vector<Correspondence> attrs =
            source.correspondences.AttributesInto(target_relation);
        if (attrs.empty()) continue;
        anchor = attrs.front().source_relation;
      }
      EFES_ASSIGN_OR_RETURN(const Table* anchor_table,
                            source.database.table(anchor));
      auto anchor_node = csg.graph.FindTableNode(anchor);
      if (!anchor_node.ok()) continue;
      EFES_ASSIGN_OR_RETURN(const RelationDef* target_rel,
                            target_schema.relation(target_relation));
      EFES_ASSIGN_OR_RETURN(Table * destination,
                            result.mutable_table(target_relation));

      // Anchor key column (single-attribute PK, else the row index).
      std::optional<size_t> anchor_key_column;
      std::vector<std::string> anchor_pk =
          source.database.schema().PrimaryKeyOf(anchor);
      if (anchor_pk.size() == 1) {
        anchor_key_column = anchor_table->def().AttributeIndex(anchor_pk[0]);
      }

      // Resolve every attribute's feed.
      struct AttributeFeed {
        enum class Kind { kNone, kDirect, kPath, kSurrogate } kind =
            Kind::kNone;
        size_t direct_column = 0;            // kDirect
        std::vector<RelationshipId> path;    // kPath
        // FK remapping: the referenced target relation whose key map
        // translates the source value.
        std::string remap_via;
      };
      std::vector<AttributeFeed> feeds(target_rel->attribute_count());
      std::optional<std::string> generated_pk = surrogate_pk(target_relation);

      for (size_t a = 0; a < target_rel->attribute_count(); ++a) {
        const std::string& attribute = target_rel->attributes()[a].name;
        std::vector<Correspondence> corrs =
            source.correspondences.AttributesInto(target_relation,
                                                  attribute);
        if (corrs.empty()) {
          if (generated_pk.has_value() && attribute == *generated_pk) {
            feeds[a].kind = AttributeFeed::Kind::kSurrogate;
          }
          continue;
        }
        const Correspondence& corr = corrs.front();
        if (corr.source_relation == anchor) {
          auto column = anchor_table->def().AttributeIndex(
              corr.source_attribute);
          if (column.has_value()) {
            feeds[a].kind = AttributeFeed::Kind::kDirect;
            feeds[a].direct_column = *column;
          }
        } else {
          auto attr_node = csg.graph.FindAttributeNode(
              corr.source_relation, corr.source_attribute);
          if (attr_node.ok()) {
            auto best = FindBestPath(csg.graph, *anchor_node, *attr_node);
            if (best.has_value()) {
              feeds[a].kind = AttributeFeed::Kind::kPath;
              feeds[a].path = best->path;
            }
          }
        }
        // FK attributes remap through the referenced relation's key map
        // when it has been populated.
        for (const Constraint& c : target_schema.constraints()) {
          if (c.kind == ConstraintKind::kForeignKey &&
              c.relation == target_relation && c.attributes.size() == 1 &&
              c.attributes[0] == attribute &&
              key_maps.count(c.referenced_relation) > 0) {
            feeds[a].remap_via = c.referenced_relation;
          }
        }
      }

      // INSERT-DISTINCT idiom: when the target declares a fed attribute
      // unique (an entity table like venues(name UNIQUE) populated from a
      // fact table), a practitioner deduplicates while inserting instead
      // of repairing afterwards. Rows whose unique value is NULL carry no
      // entity and are skipped likewise.
      std::optional<size_t> distinct_on;
      for (size_t a = 0; a < target_rel->attribute_count(); ++a) {
        if (feeds[a].kind == AttributeFeed::Kind::kDirect ||
            feeds[a].kind == AttributeFeed::Kind::kPath) {
          if (target_schema.IsUniqueAttribute(
                  target_relation, target_rel->attributes()[a].name)) {
            distinct_on = a;
            break;
          }
        }
      }
      std::unordered_set<Value, ValueHash> seen_distinct;

      bool pk_direct = false;
      std::optional<size_t> pk_feed_index;
      if (generated_pk.has_value()) {
        auto index = target_rel->AttributeIndex(*generated_pk);
        if (index.has_value()) {
          pk_feed_index = index;
          pk_direct = feeds[*index].kind == AttributeFeed::Kind::kDirect;
        }
      }

      // Track which path-fed values were actually pulled in, to find
      // detached values afterwards.
      std::map<size_t, std::unordered_set<Value, ValueHash>> pulled;

      for (size_t row = 0; row < anchor_table->row_count(); ++row) {
        std::vector<Value> values(target_rel->attribute_count(),
                                  Value::Null());
        bool reject = false;
        for (size_t a = 0; a < target_rel->attribute_count(); ++a) {
          const AttributeDef& attribute = target_rel->attributes()[a];
          Value value = Value::Null();
          switch (feeds[a].kind) {
            case AttributeFeed::Kind::kNone:
              break;
            case AttributeFeed::Kind::kSurrogate:
              value = Value::Integer(next_id[target_relation]++);
              break;
            case AttributeFeed::Kind::kDirect:
              value = anchor_table->at(row, feeds[a].direct_column);
              break;
            case AttributeFeed::Kind::kPath: {
              std::vector<Value> reachable = csg.instance.ReachableViaPath(
                  csg.graph, feeds[a].path, static_cast<ElementId>(row));
              for (const Value& v : reachable) pulled[a].insert(v);
              if (reachable.empty()) break;
              if (reachable.size() == 1) {
                value = reachable.front();
              } else if (high) {
                // Merge: combine into one value when the target is text,
                // otherwise keep the first (both count as merge work).
                ++counters.values_merged;
                if (attribute.type == DataType::kText) {
                  std::vector<std::string> parts;
                  for (const Value& v : reachable) {
                    parts.push_back(v.ToString());
                  }
                  value = Value::Text(Join(parts, "; "));
                } else {
                  value = reachable.front();
                }
              } else {
                ++counters.values_kept_any;
                value = reachable.front();
              }
              break;
            }
          }
          // FK remapping to generated keys.
          if (!value.is_null() && !feeds[a].remap_via.empty()) {
            const auto& key_map = key_maps[feeds[a].remap_via];
            auto it = key_map.find(value);
            value = it == key_map.end() ? Value::Null() : it->second;
          }
          // Type fit.
          if (!value.is_null() && !value.CanCastTo(attribute.type)) {
            if (high) {
              value = BestEffortConvert(value, attribute.type);
              ++counters.values_converted;
            } else {
              value = Value::Null();
              ++counters.values_dropped_uncastable;
            }
          }
          values[a] = std::move(value);
        }
        // A row whose fed attributes are all NULL carries no information
        // (e.g. a link table without attribute correspondences): skip.
        bool any_fed_value = false;
        for (size_t a = 0; a < target_rel->attribute_count(); ++a) {
          if ((feeds[a].kind == AttributeFeed::Kind::kDirect ||
               feeds[a].kind == AttributeFeed::Kind::kPath) &&
              !values[a].is_null()) {
            any_fed_value = true;
            break;
          }
        }
        if (!any_fed_value) continue;
        // INSERT-DISTINCT deduplication for entity tables.
        if (distinct_on.has_value()) {
          const Value& entity = values[*distinct_on];
          if (entity.is_null() || !seen_distinct.insert(entity).second) {
            continue;
          }
        }
        // Mandatory values.
        for (size_t a = 0; a < target_rel->attribute_count(); ++a) {
          const AttributeDef& attribute = target_rel->attributes()[a];
          if (!values[a].is_null() ||
              !target_schema.IsNotNullable(target_relation,
                                           attribute.name)) {
            continue;
          }
          bool is_fk_attr = !feeds[a].remap_via.empty();
          if (high && !is_fk_attr) {
            values[a] =
                Placeholder(attribute.type, options_.missing_text);
            ++counters.values_added;
          } else {
            reject = true;
          }
        }
        if (reject) {
          ++counters.tuples_rejected;
          continue;
        }
        // Record the key mapping before the row is consumed.
        if (pk_feed_index.has_value() &&
            (feeds[*pk_feed_index].kind ==
                 AttributeFeed::Kind::kSurrogate ||
             pk_direct)) {
          Value anchor_key =
              anchor_key_column.has_value()
                  ? anchor_table->at(row, *anchor_key_column)
                  : Value::Integer(static_cast<int64_t>(row));
          if (!anchor_key.is_null()) {
            key_maps[target_relation][anchor_key] = values[*pk_feed_index];
          }
        }
        EFES_RETURN_IF_ERROR(destination->AppendRow(std::move(values)));
        ++counters.tuples_integrated;
      }

      // Detached values of path-fed attributes: source values never
      // reached from any anchor tuple.
      for (auto& [a, seen] : pulled) {
        const Correspondence corr =
            source.correspondences
                .AttributesInto(target_relation,
                                target_rel->attributes()[a].name)
                .front();
        auto source_table = source.database.table(corr.source_relation);
        if (!source_table.ok()) continue;
        auto column =
            (*source_table)->def().AttributeIndex(corr.source_attribute);
        if (!column.has_value()) continue;
        std::vector<Value> distinct =
            (*source_table)->DistinctValues(*column);
        std::sort(distinct.begin(), distinct.end());
        for (const Value& value : distinct) {
          if (seen.count(value) > 0) continue;
          if (!high) {
            ++counters.values_dropped_detached;
            continue;
          }
          // Create an enclosing tuple for the detached value.
          std::vector<Value> values(target_rel->attribute_count(),
                                    Value::Null());
          values[a] = value;
          for (size_t other = 0; other < values.size(); ++other) {
            const AttributeDef& attribute = target_rel->attributes()[other];
            if (other == a) continue;
            if (feeds[other].kind == AttributeFeed::Kind::kSurrogate) {
              values[other] = Value::Integer(next_id[target_relation]++);
            } else if (target_schema.IsNotNullable(target_relation,
                                                   attribute.name)) {
              values[other] =
                  Placeholder(attribute.type, options_.missing_text);
              ++counters.values_added;
            }
          }
          if (!values[a].CanCastTo(target_rel->attributes()[a].type)) {
            values[a] =
                BestEffortConvert(values[a], target_rel->attributes()[a].type);
            ++counters.values_converted;
          }
          EFES_RETURN_IF_ERROR(destination->AppendRow(std::move(values)));
          ++counters.tuples_added;
        }
      }
    }
  }

  // --- Residual repair: drive the combined instance to validity. ----------
  for (size_t round = 0;; ++round) {
    std::vector<ConstraintViolation> violations =
        result.FindConstraintViolations();
    if (violations.empty()) break;
    if (round >= options_.max_repair_rounds) {
      return Status::Unsatisfiable(
          "integration result did not reach validity after " +
          std::to_string(options_.max_repair_rounds) + " repair rounds");
    }
    for (const ConstraintViolation& violation : violations) {
      const Constraint& constraint = violation.constraint;
      EFES_ASSIGN_OR_RETURN(Table * table,
                            result.mutable_table(constraint.relation));
      std::vector<size_t> columns;
      for (const std::string& attribute : constraint.attributes) {
        auto index = table->def().AttributeIndex(attribute);
        if (index.has_value()) columns.push_back(*index);
      }
      switch (constraint.kind) {
        case ConstraintKind::kNotNull: {
          std::vector<size_t> offending;
          for (size_t r = 0; r < table->row_count(); ++r) {
            if (table->at(r, columns[0]).is_null()) offending.push_back(r);
          }
          if (high) {
            DataType type = table->def().attributes()[columns[0]].type;
            for (size_t r : offending) {
              table->at(r, columns[0]) =
                  Placeholder(type, options_.missing_text);
              ++counters.values_added;
            }
          } else {
            counters.tuples_rejected += offending.size();
            table->RemoveRows(offending);
          }
          break;
        }
        case ConstraintKind::kUnique:
        case ConstraintKind::kPrimaryKey: {
          // Aggregate duplicate groups onto their first row; rows with a
          // NULL key (PK only) are rejected/filled by the NOT NULL logic
          // of the PK itself on a later round.
          std::unordered_map<std::string, size_t> first_of;
          std::vector<size_t> removals;
          for (size_t r = 0; r < table->row_count(); ++r) {
            auto key = ProjectionKey(*table, r, columns);
            if (!key.has_value()) {
              if (constraint.kind == ConstraintKind::kPrimaryKey) {
                if (high) {
                  for (size_t c : columns) {
                    if (table->at(r, c).is_null()) {
                      table->at(r, c) = Placeholder(
                          table->def().attributes()[c].type,
                          options_.missing_text);
                      ++counters.values_added;
                    }
                  }
                } else {
                  removals.push_back(r);
                  ++counters.tuples_rejected;
                }
              }
              continue;
            }
            auto [it, inserted] = first_of.emplace(*key, r);
            if (!inserted) {
              removals.push_back(r);
              ++counters.tuples_aggregated;
            }
          }
          table->RemoveRows(removals);
          break;
        }
        case ConstraintKind::kFunctionalDependency: {
          // Reconcile each determinant group onto one dependent
          // projection: high quality merges onto the first row's values,
          // low effort removes the disagreeing rows. Either way one
          // round suffices.
          std::vector<size_t> dependent_columns;
          for (const std::string& attribute : constraint.referenced_attributes) {
            auto index = table->def().AttributeIndex(attribute);
            if (index.has_value()) dependent_columns.push_back(*index);
          }
          std::unordered_map<std::string, size_t> first_of;
          std::vector<size_t> removals;
          for (size_t r = 0; r < table->row_count(); ++r) {
            auto key = ProjectionKey(*table, r, columns);
            if (!key.has_value()) continue;
            auto [it, inserted] = first_of.emplace(*key, r);
            if (inserted) continue;
            bool differs = false;
            for (size_t c : dependent_columns) {
              if (!(table->at(r, c) == table->at(it->second, c))) {
                differs = true;
                break;
              }
            }
            if (!differs) continue;
            if (high) {
              for (size_t c : dependent_columns) {
                table->at(r, c) = table->at(it->second, c);
              }
              ++counters.values_merged;
            } else {
              removals.push_back(r);
              ++counters.tuples_rejected;
            }
          }
          table->RemoveRows(removals);
          break;
        }
        case ConstraintKind::kForeignKey: {
          EFES_ASSIGN_OR_RETURN(
              Table * parent,
              result.mutable_table(constraint.referenced_relation));
          std::vector<size_t> parent_columns;
          for (const std::string& attribute :
               constraint.referenced_attributes) {
            auto index = parent->def().AttributeIndex(attribute);
            if (index.has_value()) parent_columns.push_back(*index);
          }
          std::unordered_set<std::string> parent_keys;
          for (size_t r = 0; r < parent->row_count(); ++r) {
            auto key = ProjectionKey(*parent, r, parent_columns);
            if (key.has_value()) parent_keys.insert(*key);
          }
          std::vector<size_t> dangling;
          for (size_t r = 0; r < table->row_count(); ++r) {
            auto key = ProjectionKey(*table, r, columns);
            if (key.has_value() && parent_keys.count(*key) == 0) {
              dangling.push_back(r);
            }
          }
          if (high && parent_columns.size() == 1) {
            // Add referenced parent rows carrying the dangling keys.
            std::unordered_set<Value, ValueHash> added;
            for (size_t r : dangling) {
              const Value& key_value = table->at(r, columns[0]);
              if (!added.insert(key_value).second) continue;
              std::vector<Value> parent_row(
                  parent->def().attribute_count(), Value::Null());
              parent_row[parent_columns[0]] = key_value;
              for (size_t c = 0; c < parent_row.size(); ++c) {
                if (c == parent_columns[0]) continue;
                const AttributeDef& attribute =
                    parent->def().attributes()[c];
                if (target_schema.IsNotNullable(
                        constraint.referenced_relation, attribute.name)) {
                  parent_row[c] =
                      Placeholder(attribute.type, options_.missing_text);
                  ++counters.values_added;
                }
              }
              EFES_RETURN_IF_ERROR(
                  parent->AppendRow(std::move(parent_row)));
            }
            counters.dangling_repaired += dangling.size();
          } else {
            counters.dangling_repaired += dangling.size();
            table->RemoveRows(dangling);
          }
          break;
        }
      }
    }
  }

  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.GetCounter("execute.run.tuples_integrated")
      .Increment(counters.tuples_integrated);
  metrics.GetCounter("execute.run.tuples_rejected")
      .Increment(counters.tuples_rejected);
  metrics.GetCounter("execute.run.values_merged")
      .Increment(counters.values_merged);
  metrics.GetCounter("execute.run.values_converted")
      .Increment(counters.values_converted);
  metrics.GetCounter("execute.run.dangling_repaired")
      .Increment(counters.dangling_repaired);
  EFES_LOG(LogLevel::kInfo, "execute: " + counters.ToString());
  return result;
}

}  // namespace efes
