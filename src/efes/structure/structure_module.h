// The structural-conflict estimation module (Section 4): plugs the
// structure conflict detector and the structure repair planner into the
// EFES framework.

#ifndef EFES_STRUCTURE_STRUCTURE_MODULE_H_
#define EFES_STRUCTURE_STRUCTURE_MODULE_H_

#include <memory>
#include <string>
#include <vector>

#include "efes/core/module.h"
#include "efes/structure/conflict_detector.h"
#include "efes/structure/repair_planner.h"

namespace efes {

class StructureComplexityReport : public ComplexityReport {
 public:
  StructureComplexityReport(CsgGraph target_graph,
                            std::vector<SourceStructureAssessment> sources)
      : target_graph_(std::move(target_graph)),
        sources_(std::move(sources)) {}

  const CsgGraph& target_graph() const { return target_graph_; }
  const std::vector<SourceStructureAssessment>& sources() const {
    return sources_;
  }

  std::string module_name() const override { return "structure"; }

  /// Renders Table 3: "Constraint in target schema | Violation count in
  /// source data" (per source database, aggregated over defect sides).
  std::string ToText() const override;

  size_t ProblemCount() const override;

 private:
  CsgGraph target_graph_;
  std::vector<SourceStructureAssessment> sources_;
};

class StructureModule : public EstimationModule {
 public:
  struct Options {
    ConflictDetectorOptions detector;
    RepairPlannerOptions planner;
  };

  StructureModule() = default;
  explicit StructureModule(Options options) : options_(std::move(options)) {}

  std::string name() const override { return "structure"; }

  Result<std::unique_ptr<ComplexityReport>> AssessComplexity(
      const IntegrationScenario& scenario,
      const RunContext& context) const override;

  Result<std::vector<Task>> PlanTasks(
      const ComplexityReport& report, ExpectedQuality quality,
      const ExecutionSettings& settings) const override;

 private:
  Options options_;
};

}  // namespace efes

#endif  // EFES_STRUCTURE_STRUCTURE_MODULE_H_
