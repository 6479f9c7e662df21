#include "efes/mapping/mapping_module.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <sstream>

#include "efes/common/deadline.h"
#include "efes/common/text_table.h"
#include "efes/provenance/provenance.h"

namespace efes {

namespace {

/// Undirected join graph over the relations of one schema: relations are
/// vertices, foreign keys are edges. Used to find the intermediate tables
/// a mapping query must traverse.
std::map<std::string, std::set<std::string>> BuildJoinGraph(
    const Schema& schema) {
  std::map<std::string, std::set<std::string>> graph;
  for (const RelationDef& rel : schema.relations()) {
    graph[rel.name()];  // ensure vertex
  }
  for (const Constraint& c : schema.constraints()) {
    if (c.kind != ConstraintKind::kForeignKey) continue;
    graph[c.relation].insert(c.referenced_relation);
    graph[c.referenced_relation].insert(c.relation);
  }
  return graph;
}

/// Shortest path between two relations in the join graph (BFS); empty
/// when unreachable, otherwise includes both endpoints.
std::vector<std::string> ShortestJoinPath(
    const std::map<std::string, std::set<std::string>>& graph,
    const std::string& from, const std::string& to) {
  if (from == to) return {from};
  std::map<std::string, std::string> parent;
  std::deque<std::string> queue = {from};
  parent[from] = from;
  while (!queue.empty()) {
    std::string current = queue.front();
    queue.pop_front();
    auto it = graph.find(current);
    if (it == graph.end()) continue;
    for (const std::string& next : it->second) {
      if (parent.count(next) > 0) continue;
      parent[next] = current;
      if (next == to) {
        std::vector<std::string> path = {to};
        std::string walk = to;
        while (walk != from) {
          walk = parent[walk];
          path.push_back(walk);
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      queue.push_back(next);
    }
  }
  return {};
}

/// The set of source tables the mapping query needs: the contributing
/// relations plus any intermediate relations on pairwise shortest join
/// paths (a lightweight Steiner-tree approximation — exact Steiner trees
/// buy nothing for effort estimation).
std::vector<std::string> RequiredSourceTables(
    const Schema& source_schema,
    const std::vector<std::string>& contributing) {
  if (contributing.size() <= 1) return contributing;
  auto graph = BuildJoinGraph(source_schema);
  std::set<std::string> required(contributing.begin(), contributing.end());
  for (size_t i = 1; i < contributing.size(); ++i) {
    std::vector<std::string> path =
        ShortestJoinPath(graph, contributing[0], contributing[i]);
    required.insert(path.begin(), path.end());
  }
  return std::vector<std::string>(required.begin(), required.end());
}

}  // namespace

std::string MappingComplexityReport::ToText() const {
  TextTable table;
  table.SetHeader({"Source database", "Target table", "Source tables",
                   "Attributes", "Primary key", "Foreign keys"});
  for (const MappingConnection& c : connections_) {
    table.AddRow({c.source_database, c.target_table,
                  std::to_string(c.source_tables.size()),
                  std::to_string(c.attribute_count),
                  c.needs_key_generation ? "yes" : "no",
                  std::to_string(c.foreign_key_count)});
  }
  return table.ToString();
}

Result<std::unique_ptr<ComplexityReport>> MappingModule::AssessComplexity(
    const IntegrationScenario& scenario, const RunContext& context) const {
  ProvenanceRecorder* prov = context.recorder;
  std::vector<MappingConnection> connections;
  for (const SourceBinding& source : scenario.sources) {
    // Source databases can be numerous and each connection walk touches
    // the whole join graph; checkpoint at the per-source boundary.
    EFES_RETURN_IF_ERROR(CheckCancellation());
    const Schema& source_schema = source.database.schema();
    const Schema& target_schema = scenario.target.schema();
    for (const std::string& target_table :
         source.correspondences.TargetRelations()) {
      std::vector<Correspondence> attribute_correspondences =
          source.correspondences.AttributesInto(target_table);
      std::vector<std::string> contributing =
          source.correspondences.SourceRelationsFor(target_table);
      if (attribute_correspondences.empty() && contributing.empty()) {
        continue;
      }

      // Target foreign keys anchored at this table must be established by
      // the mapping: correspondences that feed FK attributes are key
      // remappings rather than plain attribute copies, and the mapping
      // query must additionally reach the source relation that anchors
      // the referenced target table (to resolve the new keys).
      std::set<std::string> fk_attributes;
      for (const Constraint& c : target_schema.constraints()) {
        if (c.kind != ConstraintKind::kForeignKey ||
            c.relation != target_table) {
          continue;
        }
        fk_attributes.insert(c.attributes.begin(), c.attributes.end());
        auto referenced_anchor = source.correspondences
                                     .RelationCorrespondenceFor(
                                         c.referenced_relation);
        if (referenced_anchor.ok() &&
            std::find(contributing.begin(), contributing.end(),
                      referenced_anchor->source_relation) ==
                contributing.end()) {
          contributing.push_back(referenced_anchor->source_relation);
        }
      }

      size_t copied_attributes = 0;
      for (const Correspondence& c : attribute_correspondences) {
        if (fk_attributes.count(c.target_attribute) == 0) {
          ++copied_attributes;
        }
      }

      MappingConnection connection;
      connection.source_database = source.database.name();
      connection.target_table = target_table;
      connection.source_tables =
          RequiredSourceTables(source_schema, contributing);
      connection.attribute_count = copied_attributes;

      // Key generation: the target table declares a primary key and none
      // of its key attributes receives values from this source.
      std::vector<std::string> pk = target_schema.PrimaryKeyOf(target_table);
      if (!pk.empty()) {
        bool any_key_attribute_fed = false;
        for (const std::string& key_attribute : pk) {
          if (!source.correspondences
                   .AttributesInto(target_table, key_attribute)
                   .empty()) {
            any_key_attribute_fed = true;
            break;
          }
        }
        connection.needs_key_generation = !any_key_attribute_fed;
      }

      // Target foreign keys anchored at this table must be established by
      // the mapping (value lookups / surrogate-key joins).
      for (const Constraint& c : target_schema.constraints()) {
        if (c.kind == ConstraintKind::kForeignKey &&
            c.relation == target_table) {
          ++connection.foreign_key_count;
        }
      }

      if (prov != nullptr) {
        // Each connection derives from the correspondence scores that
        // established it; the planner forwards the id into the task.
        std::vector<uint64_t> inputs;
        for (const Correspondence& c : attribute_correspondences) {
          inputs.push_back(prov->RecordValue(
              ProvenanceKind::kCorrespondence, "correspondence",
              connection.source_database + ":" + c.source_relation + "." +
                  c.source_attribute + " -> " + c.target_relation + "." +
                  c.target_attribute,
              c.confidence));
        }
        connection.provenance = prov->Record(
            ProvenanceKind::kFinding, "mapping connection",
            connection.source_database + " -> " + connection.target_table,
            std::move(inputs));
      }
      connections.push_back(std::move(connection));
    }
  }
  auto report =
      std::make_unique<MappingComplexityReport>(std::move(connections));
  if (prov != nullptr) {
    std::vector<uint64_t> connection_nodes;
    for (const MappingConnection& c : report->connections()) {
      connection_nodes.push_back(c.provenance);
    }
    report->set_provenance_node(prov->RecordValue(
        ProvenanceKind::kFinding, "mapping assessment", "",
        static_cast<double>(report->connections().size()),
        std::move(connection_nodes)));
  }
  return std::unique_ptr<ComplexityReport>(std::move(report));
}

Result<std::vector<Task>> MappingModule::PlanTasks(
    const ComplexityReport& report, ExpectedQuality quality,
    const ExecutionSettings& settings) const {
  (void)quality;    // a mapping must be written either way
  (void)settings;   // tool availability is priced by the effort function
  const auto* mapping_report =
      dynamic_cast<const MappingComplexityReport*>(&report);
  if (mapping_report == nullptr) {
    return Status::InvalidArgument(
        "MappingModule received a foreign complexity report");
  }
  std::vector<Task> tasks;
  for (const MappingConnection& c : mapping_report->connections()) {
    Task task;
    task.type = TaskType::kWriteMapping;
    task.category = TaskCategory::kMapping;
    task.quality = ExpectedQuality::kHighQuality;
    task.subject = c.source_database + " -> " + c.target_table;
    task.parameters[task_params::kTables] =
        static_cast<double>(c.source_tables.size());
    task.parameters[task_params::kAttributes] =
        static_cast<double>(c.attribute_count);
    task.parameters[task_params::kPrimaryKeys] =
        c.needs_key_generation ? 1.0 : 0.0;
    task.parameters[task_params::kForeignKeys] =
        static_cast<double>(c.foreign_key_count);
    if (c.provenance != 0) task.provenance.push_back(c.provenance);
    tasks.push_back(std::move(task));
  }
  return tasks;
}

}  // namespace efes
