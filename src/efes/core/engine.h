// The EFES engine: runs every registered estimation module through the
// two phases (complexity assessment, effort estimation) and aggregates a
// single effort estimate with a per-task and per-category breakdown
// (Figure 3).

#ifndef EFES_CORE_ENGINE_H_
#define EFES_CORE_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "efes/core/effort_model.h"
#include "efes/core/integration_scenario.h"
#include "efes/core/module.h"
#include "efes/core/task.h"
#include "efes/profiling/sketch.h"

namespace efes {

/// Everything that parameterizes one estimation run, with usable
/// defaults. Callers set only what they care about:
///
///   RunOptions options;
///   options.quality = ExpectedQuality::FromPercent(95);
///   options.cache = &cache;
///   engine.Run(scenario, options);
///
/// New knobs land here as defaulted fields, so adding one never breaks a
/// call site.
struct RunOptions {
  /// The expected-quality input of the paper's Section 3.2.
  ExpectedQuality quality = ExpectedQuality::kHighQuality;
  /// Execution-context multipliers (practitioner skill, familiarity, ...).
  ExecutionSettings settings;
  /// Optional profile cache consulted by phase-1 profiling, so repeated
  /// runs over unchanged sources skip recomputation. When null, the run
  /// uses the process default, ProfileCache::Active() (installed by the
  /// CLI's or a bench harness's main), which is null unless one is.
  ProfileCache* cache = nullptr;
  /// Profiling execution knobs (chunk size, memory budget, approximation
  /// mode — profiling/sketch.h) for every profile the run computes. The
  /// default is the exact, unbudgeted behavior.
  ProfileOptions profile;
  /// When set, the run records its provenance DAG here (DESIGN.md §12);
  /// null, the default, records nothing.
  ProvenanceRecorder* recorder = nullptr;
};

/// One planned task with its estimated effort.
struct TaskEstimate {
  Task task;
  double minutes = 0.0;
};

/// The aggregated output of an estimation run.
struct EffortEstimate {
  std::vector<TaskEstimate> tasks;

  double TotalMinutes() const;
  double CategoryMinutes(TaskCategory category) const;

  /// Renders the task list with per-task minutes and category subtotals —
  /// the granular breakdown the paper argues for ("instead of just
  /// delivering a final effort value, our effort estimate is broken down
  /// according to its underlying tasks").
  std::string ToText() const;
};

/// Result of running one module: its report and its estimated tasks.
/// When the module failed (returned an error or threw) and the engine
/// contained it, `status` carries the failure; `report` is null when the
/// assessment phase itself failed, and present without tasks when only
/// the planning phase failed.
struct ModuleRun {
  std::string module;
  Status status;
  std::unique_ptr<ComplexityReport> report;
  std::vector<TaskEstimate> tasks;

  bool ok() const { return status.ok(); }
};

/// Full estimation result. A failing module does not abort the run: its
/// failure is contained into its ModuleRun::status, `degraded` is set,
/// and the estimate aggregates the modules that did succeed — a partial
/// report beats no report (DESIGN.md, "Failure handling & degraded
/// modes").
struct EstimationResult {
  std::vector<ModuleRun> module_runs;
  EffortEstimate estimate;
  bool degraded = false;

  std::string ToText() const;
};

class EfesEngine {
 public:
  explicit EfesEngine(EffortModel model = EffortModel::PaperDefault())
      : effort_model_(std::move(model)) {}

  /// Registers an estimation module; modules run in registration order.
  void AddModule(std::unique_ptr<EstimationModule> module);

  size_t module_count() const { return modules_.size(); }

  const EffortModel& effort_model() const { return effort_model_; }

  /// Replaces the effort model after validating it (the global scale must
  /// be a finite positive number — a zero or NaN scale silently nullifies
  /// every estimate).
  Status set_effort_model(EffortModel model);

  /// Runs phase 1 + 2 of every module and prices the resulting tasks.
  Result<EstimationResult> Run(const IntegrationScenario& scenario,
                               const RunOptions& options = {}) const;

  /// Runs phase 1 only — the pure complexity assessment, useful for
  /// source selection and data visualization (Section 3.3). Reads the
  /// phase-1 fields of `options` (cache, profile, recorder);
  /// quality/settings drive phase 2 and are ignored.
  Result<std::vector<std::unique_ptr<ComplexityReport>>> AssessComplexity(
      const IntegrationScenario& scenario,
      const RunOptions& options = {}) const;

 private:
  EffortModel effort_model_;
  std::vector<std::unique_ptr<EstimationModule>> modules_;
};

}  // namespace efes

#endif  // EFES_CORE_ENGINE_H_
