#include "efes/core/effort_model.h"

namespace efes {

namespace {

double Repetitions(const Task& task) {
  return task.Param(task_params::kRepetitions);
}
double Values(const Task& task) { return task.Param(task_params::kValues); }
double DistinctValues(const Task& task) {
  return task.Param(task_params::kDistinctValues);
}

/// Which task parameters each Table 9 default function reads — the
/// provenance layer links these parameter values into the effort node.
std::vector<std::string> DefaultFunctionParameters(TaskType type) {
  switch (type) {
    case TaskType::kAggregateValues:
      return {std::string(task_params::kRepetitions)};
    case TaskType::kConvertValues:
    case TaskType::kGeneralizeValues:
      return {std::string(task_params::kDistinctValues)};
    case TaskType::kRefineValues:
    case TaskType::kAddValues:
    case TaskType::kAddMissingValues:
      return {std::string(task_params::kValues)};
    case TaskType::kWriteMapping:
      return {std::string(task_params::kForeignKeys),
              std::string(task_params::kPrimaryKeys),
              std::string(task_params::kAttributes),
              std::string(task_params::kTables)};
    case TaskType::kResolveDuplicateClusters:
      return {std::string(task_params::kClusters),
              std::string(task_params::kPairs)};
    default:
      return {};
  }
}

}  // namespace

EffortModel EffortModel::PaperDefault() {
  EffortModel model;
  // Every Table 9 function carries its formula text and the task
  // parameters it reads, so Explain() can name them.
  auto add = [&model](TaskType type, EffortFunction function) {
    model.SetFunction(type, std::move(function),
                      DescribeDefaultFunction(type),
                      DefaultFunctionParameters(type));
  };
  auto constant = [](double minutes) {
    return [minutes](const Task&, const ExecutionSettings&) {
      return minutes;
    };
  };

  // --- Value transformation tasks (Table 9, top block) ---------------------
  add(TaskType::kAggregateValues,
      [](const Task& task, const ExecutionSettings&) {
        return 3.0 * Repetitions(task);
      });
  add(TaskType::kConvertValues,
      [](const Task& task, const ExecutionSettings&) {
        double dist = DistinctValues(task);
        return dist < 120.0 ? 30.0 : 0.25 * dist;
      });
  add(TaskType::kGeneralizeValues,
      [](const Task& task, const ExecutionSettings&) {
        return 0.5 * DistinctValues(task);
      });
  add(TaskType::kRefineValues,
      [](const Task& task, const ExecutionSettings&) {
        return 0.5 * Values(task);
      });
  add(TaskType::kDropValues, constant(10.0));
  add(TaskType::kAddValues,
      [](const Task& task, const ExecutionSettings&) {
        return 2.0 * Values(task);
      });

  // --- Structural repair tasks (Table 9, middle block) --------------------
  add(TaskType::kCreateEnclosingTuples, constant(10.0));
  add(TaskType::kDropDetachedValues, constant(0.0));
  add(TaskType::kRejectTuples, constant(5.0));
  add(TaskType::kKeepAnyValue, constant(5.0));
  add(TaskType::kAddTuples, constant(5.0));
  add(TaskType::kAggregateTuples, constant(5.0));
  add(TaskType::kDeleteDanglingValues, constant(5.0));
  add(TaskType::kAddReferencedValues, constant(5.0));
  add(TaskType::kDeleteDanglingTuples, constant(5.0));
  add(TaskType::kUnlinkAllButOneTuple, constant(5.0));
  // "Add missing values" prices like "Add values": the practitioner has to
  // investigate and provide each value (2 minutes per value, Section 6.1).
  add(TaskType::kAddMissingValues,
      [](const Task& task, const ExecutionSettings&) {
        return 2.0 * Values(task);
      });
  // One SQL aggregation script plus validation, independent of the number
  // of affected tuples (this reproduces Table 5's 15 minutes for 503
  // repetitions of Merge values).
  add(TaskType::kMergeValues, constant(15.0));
  // Setting violating values to NULL is a single UPDATE statement.
  add(TaskType::kSetValuesToNull, constant(5.0));

  // --- Deduplication (dedup module) ----------------------------------------
  // Resolving a cluster group is merge work per confirmed cluster plus a
  // human look at every candidate pair (the configurable pair-review cost;
  // see effort_config.h's [dedup] section).
  add(TaskType::kResolveDuplicateClusters,
      [](const Task& task, const ExecutionSettings&) {
        return 2.0 * task.Param(task_params::kClusters) +
               0.5 * task.Param(task_params::kPairs);
      });
  // Low effort keeps one arbitrary record per cluster: one DELETE script
  // per affected relation, independent of the cluster count.
  add(TaskType::kDropDuplicateRecords, constant(8.0));

  // --- Mapping (Table 9, bottom row; Example 3.8) --------------------------
  add(TaskType::kWriteMapping,
      [](const Task& task, const ExecutionSettings& settings) {
        if (settings.mapping_tool_available) {
          return settings.mapping_tool_minutes;
        }
        return 3.0 * task.Param(task_params::kForeignKeys) +
               3.0 * task.Param(task_params::kPrimaryKeys) +
               task.Param(task_params::kAttributes) +
               3.0 * task.Param(task_params::kTables);
      });

  return model;
}

void EffortModel::SetFunction(TaskType type, EffortFunction function,
                              std::string description,
                              std::vector<std::string> parameters) {
  functions_[type] = FunctionEntry{std::move(function), std::move(description),
                                   std::move(parameters)};
}

bool EffortModel::HasFunction(TaskType type) const {
  return functions_.count(type) > 0;
}

double EffortModel::EstimateMinutes(const Task& task,
                                    const ExecutionSettings& settings) const {
  return Explain(task, settings).minutes;
}

EffortExplanation EffortModel::Explain(
    const Task& task, const ExecutionSettings& settings) const {
  EffortExplanation explanation;
  explanation.multiplier = settings.OverallMultiplier();
  explanation.scale = global_scale_;
  auto it = functions_.find(task.type);
  if (it == functions_.end()) {
    explanation.function = "(no effort function)";
    return explanation;
  }
  explanation.known = true;
  explanation.base = it->second.function(task, settings);
  explanation.minutes =
      explanation.base * explanation.multiplier * explanation.scale;
  explanation.function = it->second.description;
  explanation.parameters = it->second.parameters;
  return explanation;
}

std::string EffortModel::DescribeDefaultFunction(TaskType type) {
  switch (type) {
    case TaskType::kAggregateValues:
      return "3 * #repetitions";
    case TaskType::kConvertValues:
      return "(if #dist-vals < 120) 30, (else) 0.25 * #dist-vals";
    case TaskType::kGeneralizeValues:
      return "0.5 * #dist-vals";
    case TaskType::kRefineValues:
      return "0.5 * #values";
    case TaskType::kDropValues:
      return "10";
    case TaskType::kAddValues:
    case TaskType::kAddMissingValues:
      return "2 * #values";
    case TaskType::kCreateEnclosingTuples:
      return "10";
    case TaskType::kDropDetachedValues:
      return "0";
    case TaskType::kMergeValues:
      return "15";
    case TaskType::kWriteMapping:
      return "3 * #FKs + 3 * #PKs + #atts + 3 * #tables";
    case TaskType::kResolveDuplicateClusters:
      return "2 * #clusters + 0.5 * #pairs";
    case TaskType::kDropDuplicateRecords:
      return "8";
    case TaskType::kRejectTuples:
    case TaskType::kKeepAnyValue:
    case TaskType::kAddTuples:
    case TaskType::kAggregateTuples:
    case TaskType::kDeleteDanglingValues:
    case TaskType::kAddReferencedValues:
    case TaskType::kDeleteDanglingTuples:
    case TaskType::kUnlinkAllButOneTuple:
    case TaskType::kSetValuesToNull:
      return "5";
  }
  return "0";
}

}  // namespace efes
