#include "efes/structure/structure_module.h"

#include <map>
#include <sstream>

#include "efes/common/deadline.h"
#include "efes/common/text_table.h"
#include "efes/provenance/provenance.h"

namespace efes {

std::string StructureComplexityReport::ToText() const {
  std::ostringstream oss;
  for (const SourceStructureAssessment& source : sources_) {
    oss << "Source: " << source.source_database << "\n";
    if (source.conflicts.empty()) {
      oss << "  (no structural conflicts)\n";
      continue;
    }
    // Aggregate the defect sides per target constraint for the Table 3
    // presentation; the planner keeps the split internally.
    std::map<std::string, size_t> per_constraint;
    std::vector<std::string> order;
    for (const StructureConflict& conflict : source.conflicts) {
      if (per_constraint.count(conflict.target_constraint) == 0) {
        order.push_back(conflict.target_constraint);
      }
      per_constraint[conflict.target_constraint] +=
          conflict.violation_count;
    }
    TextTable table;
    table.SetHeader(
        {"Constraint in target schema", "Violation count in source data"});
    for (const std::string& constraint : order) {
      table.AddRow({constraint, std::to_string(per_constraint[constraint])});
    }
    oss << table.ToString();
  }
  return oss.str();
}

size_t StructureComplexityReport::ProblemCount() const {
  size_t count = 0;
  for (const SourceStructureAssessment& source : sources_) {
    count += source.conflicts.size();
  }
  return count;
}

Result<std::unique_ptr<ComplexityReport>> StructureModule::AssessComplexity(
    const IntegrationScenario& scenario, const RunContext& context) const {
  CsgGraph target_graph;
  // Conflict detection walks every source CSG against the target; make
  // sure a cancelled deadline stops the assessment before that work.
  EFES_RETURN_IF_ERROR(CheckCancellation());
  EFES_ASSIGN_OR_RETURN(
      std::vector<SourceStructureAssessment> assessments,
      DetectStructureConflicts(scenario, &target_graph,
                               options_.detector));
  if (ProvenanceRecorder* prov = context.recorder; prov != nullptr) {
    // One constraint node per (source, target constraint), shared by the
    // excess/deficit conflict pair it usually splits into.
    std::map<std::string, uint64_t> constraint_nodes;
    std::vector<uint64_t> conflict_nodes;
    for (SourceStructureAssessment& source : assessments) {
      for (StructureConflict& conflict : source.conflicts) {
        const std::string key =
            source.source_database + "|" + conflict.target_constraint;
        auto [entry, inserted] = constraint_nodes.try_emplace(key, 0);
        if (inserted) {
          entry->second =
              prov->Record(ProvenanceKind::kConstraint, "target constraint",
                           conflict.target_constraint);
        }
        uint64_t inferred_node = prov->Record(
            ProvenanceKind::kConstraint, "inferred source cardinality",
            source.source_database + ":" + conflict.source_path + " : " +
                conflict.inferred.ToString());
        conflict.provenance = prov->RecordValue(
            ProvenanceKind::kFinding,
            "structural conflict: " +
                std::string(StructuralConflictKindToString(conflict.kind)),
            conflict.target_constraint,
            static_cast<double>(conflict.violation_count),
            {entry->second, inferred_node});
        conflict_nodes.push_back(conflict.provenance);
      }
    }
    auto report = std::make_unique<StructureComplexityReport>(
        std::move(target_graph), std::move(assessments));
    report->set_provenance_node(prov->RecordValue(
        ProvenanceKind::kFinding, "structure assessment", "",
        static_cast<double>(report->ProblemCount()),
        std::move(conflict_nodes)));
    return std::unique_ptr<ComplexityReport>(std::move(report));
  }
  return std::unique_ptr<ComplexityReport>(
      std::make_unique<StructureComplexityReport>(std::move(target_graph),
                                                  std::move(assessments)));
}

Result<std::vector<Task>> StructureModule::PlanTasks(
    const ComplexityReport& report, ExpectedQuality quality,
    const ExecutionSettings& settings) const {
  (void)settings;
  const auto* structure_report =
      dynamic_cast<const StructureComplexityReport*>(&report);
  if (structure_report == nullptr) {
    return Status::InvalidArgument(
        "StructureModule received a foreign complexity report");
  }
  std::vector<Task> all_tasks;
  for (const SourceStructureAssessment& source :
       structure_report->sources()) {
    EFES_ASSIGN_OR_RETURN(
        std::vector<Task> tasks,
        PlanStructureRepairs(structure_report->target_graph(),
                             source.conflicts, quality, options_.planner));
    for (Task& task : tasks) {
      // Qualify the subject with the source when the scenario has several.
      if (structure_report->sources().size() > 1) {
        task.subject = source.source_database + ": " + task.subject;
      }
      all_tasks.push_back(std::move(task));
    }
  }
  return all_tasks;
}

}  // namespace efes
