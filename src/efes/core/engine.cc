#include "efes/core/engine.h"

#include <cmath>
#include <sstream>

#include "efes/cache/profile_cache.h"
#include "efes/common/deadline.h"
#include "efes/common/fault.h"
#include "efes/common/parallel.h"
#include "efes/common/string_util.h"
#include "efes/common/text_table.h"
#include "efes/profiling/profiler.h"
#include "efes/provenance/provenance.h"
#include "efes/telemetry/log.h"
#include "efes/common/metrics.h"
#include "efes/telemetry/trace.h"

namespace efes {

double EffortEstimate::TotalMinutes() const {
  double total = 0.0;
  for (const TaskEstimate& t : tasks) total += t.minutes;
  return total;
}

double EffortEstimate::CategoryMinutes(TaskCategory category) const {
  double total = 0.0;
  for (const TaskEstimate& t : tasks) {
    if (t.task.category == category) total += t.minutes;
  }
  return total;
}

std::string EffortEstimate::ToText() const {
  TextTable table;
  table.SetHeader({"Task", "Category", "Effort [min]"});
  for (const TaskEstimate& t : tasks) {
    table.AddRow({t.task.ToString(),
                  std::string(TaskCategoryToString(t.task.category)),
                  FormatDouble(t.minutes, 6)});
  }
  table.AddSeparator();
  for (TaskCategory category :
       {TaskCategory::kMapping, TaskCategory::kCleaningStructure,
        TaskCategory::kCleaningValues, TaskCategory::kDeduplication,
        TaskCategory::kOther}) {
    double minutes = CategoryMinutes(category);
    if (minutes > 0.0) {
      table.AddRow({"Subtotal", std::string(TaskCategoryToString(category)),
                    FormatDouble(minutes, 6)});
    }
  }
  table.AddRow({"Total", "", FormatDouble(TotalMinutes(), 6)});
  return table.ToString();
}

std::string EstimationResult::ToText() const {
  std::ostringstream oss;
  for (const ModuleRun& run : module_runs) {
    oss << "=== " << run.module << " ===\n";
    if (run.report != nullptr) oss << run.report->ToText();
    if (!run.status.ok()) {
      oss << "module failed (" << run.status.ToString()
          << "); its problems and tasks are missing from this estimate\n";
    }
    oss << "\n";
  }
  if (degraded) {
    oss << "=== DEGRADED RUN: one or more modules failed; the estimate "
           "below is partial ===\n";
  }
  oss << "=== Effort estimate ===\n" << estimate.ToText();
  return oss.str();
}

void EfesEngine::AddModule(std::unique_ptr<EstimationModule> module) {
  modules_.push_back(std::move(module));
}

namespace {

/// The phase-1 context every module of a run sees: the caller's cache,
/// or the process default when none is given, and the run's memo.
RunContext ContextFor(const RunOptions& options, ProfileMemo* memo) {
  return RunContext{
      options.cache != nullptr ? options.cache : ProfileCache::Active(),
      options.profile, options.recorder, memo};
}

/// Runs phase 1 of one module under a `<module>.assess` span, feeding the
/// shared assessment-latency histogram. Fault point: `engine.assess`.
Result<std::unique_ptr<ComplexityReport>> AssessModule(
    const EstimationModule& module, const IntegrationScenario& scenario,
    const RunContext& context) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  static Histogram& assess_ms = metrics.GetHistogram("engine.assess.ms");
  metrics.GetCounter("engine.assess.calls").Increment();
  TraceSpan span(module.name() + ".assess", nullptr, &assess_ms);
  EFES_RETURN_IF_ERROR(CheckFaultPoint("engine.assess"));
  Result<std::unique_ptr<ComplexityReport>> report =
      module.AssessComplexity(scenario, context);
  if (report.ok() && *report != nullptr) {
    // Cross-link the trace: the span that produced this assessment
    // carries the report's provenance node id in the Chrome export.
    span.set_provenance((*report)->provenance_node());
  }
  return report;
}

/// Runs both phases of one module into `run` (report + planned tasks,
/// unpriced). Exceptions escaping the module — modules are third-party
/// extension code — are converted to kInternal so the engine's
/// containment sees every failure as a Status. Fault point:
/// `engine.plan`.
Status RunModule(const EstimationModule& module,
                 const IntegrationScenario& scenario,
                 const RunContext& context, ExpectedQuality quality,
                 const ExecutionSettings& settings, ModuleRun* run,
                 std::vector<Task>* tasks) try {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  EFES_ASSIGN_OR_RETURN(run->report, AssessModule(module, scenario, context));
  static Histogram& plan_ms = metrics.GetHistogram("engine.plan.ms");
  TraceSpan plan_span(module.name() + ".plan", nullptr, &plan_ms);
  EFES_RETURN_IF_ERROR(CheckFaultPoint("engine.plan"));
  EFES_ASSIGN_OR_RETURN(*tasks,
                        module.PlanTasks(*run->report, quality, settings));
  return Status::OK();
} catch (const std::exception& e) {
  return Status::Internal("exception in module '" + module.name() +
                          "': " + e.what());
} catch (...) {
  return Status::Internal("unknown exception in module '" + module.name() +
                          "'");
}

}  // namespace

Result<std::unique_ptr<ComplexityReport>> EstimationModule::AssessComplexity(
    const IntegrationScenario& scenario) const {
  return AssessComplexity(scenario, ContextFor(RunOptions{}, nullptr));
}

Status EfesEngine::set_effort_model(EffortModel model) {
  const double scale = model.global_scale();
  if (!std::isfinite(scale) || scale <= 0.0) {
    return Status::InvalidArgument(
        "effort model global scale must be a finite positive number, got " +
        FormatDouble(scale, 6));
  }
  effort_model_ = std::move(model);
  return Status::OK();
}

Result<EstimationResult> EfesEngine::Run(const IntegrationScenario& scenario,
                                         const RunOptions& options) const {
  const ExpectedQuality& quality = options.quality;
  const ExecutionSettings& settings = options.settings;
  ProfileMemo memo;
  const RunContext context = ContextFor(options, &memo);
  MetricsRegistry& metrics = MetricsRegistry::Global();
  static Histogram& run_ms = metrics.GetHistogram("engine.run.ms");
  TraceSpan run_span("engine.run", nullptr, &run_ms);
  metrics.GetCounter("engine.run.count").Increment();
  metrics.GetGauge("engine.run.threads").Set(ConfiguredThreadCount());
  EFES_LOG(LogLevel::kInfo,
           "engine: estimating scenario '" + scenario.name + "' with " +
               std::to_string(modules_.size()) + " modules, " +
               std::to_string(ConfiguredThreadCount()) + " threads");
  EFES_RETURN_IF_ERROR(scenario.Validate());
  // When someone is listening, record the run-wide pricing factors once;
  // every task-effort node links back to them.
  ProvenanceRecorder* prov = options.recorder;
  uint64_t multiplier_node = 0;
  uint64_t scale_node = 0;
  uint64_t profile_mode_node = 0;
  if (prov != nullptr) {
    multiplier_node = prov->RecordValue(
        ProvenanceKind::kParameter, "parameter settings.overall_multiplier",
        "", settings.OverallMultiplier());
    scale_node = prov->RecordValue(ProvenanceKind::kParameter,
                                   "parameter effort_model.global_scale", "",
                                   effort_model_.global_scale());
    // Record how phase-1 statistics were computed: exact, sketch, or
    // auto-degrading. Anyone auditing an estimate produced under an
    // approximation budget can see that from the provenance alone.
    profile_mode_node = prov->RecordValue(
        ProvenanceKind::kParameter,
        "parameter profile.approximation_mode (" +
            std::string(ApproximationModeToString(options.profile.mode)) +
            ")",
        "", static_cast<double>(static_cast<int>(options.profile.mode)));
  }
  std::vector<uint64_t> module_effort_nodes;
  size_t task_counter = 0;
  EstimationResult result;
  for (const auto& module : modules_) {
    // Cancellation checkpoint at the module boundary: a tripped deadline
    // aborts the whole run here, before the module starts, so the caller
    // never sees a half-planned estimate.
    EFES_RETURN_IF_ERROR(CheckCancellation());
    ModuleRun run;
    run.module = module->name();
    std::vector<Task> tasks;
    run.status = RunModule(*module, scenario, context, quality, settings,
                           &run, &tasks);
    if (!run.status.ok()) {
      // Cancellation is *not* contained: degrading a cancelled run would
      // hand back a torn partial estimate, the one thing the deadline
      // machinery promises never happens. Abort the run instead.
      if (IsCancellation(run.status.code())) return run.status;
      // Containment: one failing detector degrades the estimate, it does
      // not abort the run. The failure stays visible in the module's
      // status, the degraded flag, and the failure counter.
      result.degraded = true;
      metrics.GetCounter("engine.module.failures").Increment();
      EFES_LOG(LogLevel::kWarn,
               "engine: module '" + module->name() +
                   "' failed, continuing degraded: " +
                   run.status.ToString());
      result.module_runs.push_back(std::move(run));
      continue;
    }
    metrics.GetCounter("engine.plan.tasks").Increment(tasks.size());
    metrics.GetCounter(module->name() + ".plan.tasks")
        .Increment(tasks.size());
    std::vector<uint64_t> module_effort_inputs;
    for (Task& task : tasks) {
      EffortExplanation explained = effort_model_.Explain(task, settings);
      if (prov != nullptr) {
        const std::string ref = "t" + std::to_string(task_counter);
        uint64_t task_node = prov->Record(
            ProvenanceKind::kTask,
            "task " + ref + ": " + std::string(TaskTypeToString(task.type)),
            task.subject, task.provenance);
        prov->SetRef(task_node, ref);
        // The effort node derives from the task, the parameter values the
        // function read, and the run-wide scaling factors.
        std::vector<uint64_t> effort_inputs = {task_node};
        for (const std::string& name : explained.parameters) {
          auto param = task.parameters.find(name);
          if (param == task.parameters.end()) continue;
          effort_inputs.push_back(prov->RecordValue(
              ProvenanceKind::kParameter, "parameter " + name, task.subject,
              param->second));
        }
        effort_inputs.push_back(multiplier_node);
        effort_inputs.push_back(scale_node);
        effort_inputs.push_back(profile_mode_node);
        module_effort_inputs.push_back(prov->RecordValue(
            ProvenanceKind::kTaskEffort,
            "task effort " + ref + ": " + explained.function, task.subject,
            explained.minutes, std::move(effort_inputs)));
      }
      ++task_counter;
      run.tasks.push_back(TaskEstimate{std::move(task), explained.minutes});
    }
    if (prov != nullptr) {
      if (run.report != nullptr && run.report->provenance_node() != 0) {
        // Keep assessments with zero priced tasks reachable from the
        // total: the module node also derives from the assess summary.
        module_effort_inputs.push_back(run.report->provenance_node());
      }
      double module_minutes = 0.0;
      for (const TaskEstimate& t : run.tasks) module_minutes += t.minutes;
      module_effort_nodes.push_back(prov->RecordValue(
          ProvenanceKind::kModuleEffort, "module effort " + run.module, "",
          module_minutes, std::move(module_effort_inputs)));
    }
    result.estimate.tasks.insert(result.estimate.tasks.end(),
                                 run.tasks.begin(), run.tasks.end());
    result.module_runs.push_back(std::move(run));
  }
  if (prov != nullptr) {
    run_span.set_provenance(prov->RecordValue(
        ProvenanceKind::kTotalEffort, "total effort", scenario.name,
        result.estimate.TotalMinutes(), std::move(module_effort_nodes)));
  }
  EFES_LOG(LogLevel::kInfo,
           "engine: planned " +
               std::to_string(result.estimate.tasks.size()) + " tasks, " +
               FormatDouble(result.estimate.TotalMinutes(), 4) +
               " min total" + (result.degraded ? " (degraded)" : ""));
  return result;
}

Result<std::vector<std::unique_ptr<ComplexityReport>>>
EfesEngine::AssessComplexity(const IntegrationScenario& scenario,
                             const RunOptions& options) const {
  ProfileMemo memo;
  const RunContext context = ContextFor(options, &memo);
  TraceSpan run_span("engine.assess");
  MetricsRegistry::Global().GetCounter("engine.assess.runs").Increment();
  MetricsRegistry::Global()
      .GetGauge("engine.run.threads")
      .Set(ConfiguredThreadCount());
  EFES_RETURN_IF_ERROR(scenario.Validate());
  std::vector<std::unique_ptr<ComplexityReport>> reports;
  for (const auto& module : modules_) {
    EFES_RETURN_IF_ERROR(CheckCancellation());
    EFES_ASSIGN_OR_RETURN(std::unique_ptr<ComplexityReport> report,
                          AssessModule(*module, scenario, context));
    reports.push_back(std::move(report));
  }
  return reports;
}

}  // namespace efes
