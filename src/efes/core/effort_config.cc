#include "efes/core/effort_config.h"

#include <cmath>
#include <limits>

#include "efes/common/file_io.h"
#include "efes/common/string_util.h"
#include "efes/core/formula.h"

namespace efes {

namespace {

const TaskType kAllTaskTypes[] = {
    TaskType::kWriteMapping,        TaskType::kRejectTuples,
    TaskType::kAddMissingValues,    TaskType::kSetValuesToNull,
    TaskType::kAggregateTuples,     TaskType::kKeepAnyValue,
    TaskType::kMergeValues,         TaskType::kDropDetachedValues,
    TaskType::kCreateEnclosingTuples, TaskType::kDeleteDanglingValues,
    TaskType::kAddReferencedValues, TaskType::kAddTuples,
    TaskType::kDeleteDanglingTuples, TaskType::kUnlinkAllButOneTuple,
    TaskType::kAddValues,           TaskType::kDropValues,
    TaskType::kConvertValues,       TaskType::kGeneralizeValues,
    TaskType::kRefineValues,        TaskType::kAggregateValues,
    TaskType::kResolveDuplicateClusters, TaskType::kDropDuplicateRecords,
};

Result<bool> ParseBool(std::string_view value) {
  std::string lower = ToLower(Trim(value));
  if (lower == "true" || lower == "yes" || lower == "1") return true;
  if (lower == "false" || lower == "no" || lower == "0") return false;
  return Status::ParseError("expected a boolean, got '" +
                            std::string(value) + "'");
}

Result<double> ParseNumber(std::string_view value) {
  std::optional<double> parsed = ParseDouble(value);
  if (!parsed.has_value()) {
    return Status::ParseError("expected a number, got '" +
                              std::string(value) + "'");
  }
  // "nan" and "inf" parse as doubles, but make every estimate they
  // touch meaningless.
  if (!std::isfinite(*parsed)) {
    return Status::ParseError("expected a finite number, got '" +
                              std::string(value) + "'");
  }
  return *parsed;
}

/// A [dedup] row count: a whole, non-negative number that fits in
/// size_t. Anything else would be clamped or truncated by the cast, and
/// DedupOptions values are never silently clamped.
Result<size_t> ParseDedupCount(std::string_view key, std::string_view value) {
  EFES_ASSIGN_OR_RETURN(double parsed, ParseNumber(value));
  if (parsed < 0.0) {
    return Status::InvalidArgument("dedup " + std::string(key) +
                                   " must not be negative");
  }
  // 2^digits is the first whole double past size_t's range.
  if (parsed != std::floor(parsed) ||
      parsed >= std::ldexp(1.0, std::numeric_limits<size_t>::digits)) {
    return Status::InvalidArgument("dedup " + std::string(key) +
                                   " must be a whole number of rows, got '" +
                                   std::string(value) + "'");
  }
  return static_cast<size_t>(parsed);
}

Status ApplySetting(ExecutionSettings* settings, std::string_view key,
                    std::string_view value) {
  if (key == "practitioner_skill") {
    EFES_ASSIGN_OR_RETURN(settings->practitioner_skill, ParseNumber(value));
  } else if (key == "data_familiarity") {
    EFES_ASSIGN_OR_RETURN(settings->data_familiarity, ParseNumber(value));
  } else if (key == "criticality") {
    EFES_ASSIGN_OR_RETURN(settings->criticality, ParseNumber(value));
  } else if (key == "mapping_tool_available") {
    EFES_ASSIGN_OR_RETURN(settings->mapping_tool_available,
                          ParseBool(value));
  } else if (key == "mapping_tool_minutes") {
    EFES_ASSIGN_OR_RETURN(settings->mapping_tool_minutes,
                          ParseNumber(value));
  } else {
    return Status::ParseError("unknown setting '" + std::string(key) + "'");
  }
  return Status::OK();
}

/// Re-derives the two deduplication effort functions from the configured
/// costs. Called after every [dedup] cost change, so a later [efforts]
/// formula for the same task still takes precedence (file order wins).
void ApplyDedupCosts(EstimationConfig* config) {
  const double cluster_minutes = config->dedup.cluster_resolution_minutes;
  const double pair_minutes = config->dedup.pair_review_minutes;
  config->model.SetFunction(
      TaskType::kResolveDuplicateClusters,
      [cluster_minutes, pair_minutes](const Task& task,
                                      const ExecutionSettings&) {
        return cluster_minutes * task.Param(task_params::kClusters) +
               pair_minutes * task.Param(task_params::kPairs);
      },
      FormatDouble(cluster_minutes, 6) + " * #clusters + " +
          FormatDouble(pair_minutes, 6) + " * #pairs",
      {task_params::kClusters, task_params::kPairs});
  const double drop_minutes = config->dedup.drop_script_minutes;
  config->model.SetFunction(
      TaskType::kDropDuplicateRecords,
      [drop_minutes](const Task&, const ExecutionSettings&) {
        return drop_minutes;
      },
      FormatDouble(drop_minutes, 6), {});
}

/// One `key = value` line of the [dedup] section. Parse failures are
/// kParseError; values the detector cannot run with are kInvalidArgument
/// (DedupOptions::Validate) — the caller keeps the code and prefixes the
/// line number.
Status ApplyDedupSetting(EstimationConfig* config, std::string_view key,
                         std::string_view value) {
  DedupOptions& dedup = config->dedup;
  bool cost_changed = false;
  if (key == "pair_review_minutes") {
    EFES_ASSIGN_OR_RETURN(dedup.pair_review_minutes, ParseNumber(value));
    cost_changed = true;
  } else if (key == "cluster_resolution_minutes") {
    EFES_ASSIGN_OR_RETURN(dedup.cluster_resolution_minutes,
                          ParseNumber(value));
    cost_changed = true;
  } else if (key == "drop_script_minutes") {
    EFES_ASSIGN_OR_RETURN(dedup.drop_script_minutes, ParseNumber(value));
    cost_changed = true;
  } else if (key == "max_block_size") {
    EFES_ASSIGN_OR_RETURN(dedup.max_block_size, ParseDedupCount(key, value));
  } else if (key == "min_key_fill") {
    EFES_ASSIGN_OR_RETURN(dedup.min_key_fill, ParseNumber(value));
  } else if (key == "min_key_uniqueness") {
    EFES_ASSIGN_OR_RETURN(dedup.min_key_uniqueness, ParseNumber(value));
  } else if (key == "min_support_similarity") {
    EFES_ASSIGN_OR_RETURN(dedup.min_support_similarity, ParseNumber(value));
  } else if (key == "sample_limit") {
    EFES_ASSIGN_OR_RETURN(dedup.sample_limit, ParseDedupCount(key, value));
  } else {
    return Status::ParseError("unknown dedup setting '" + std::string(key) +
                              "'");
  }
  EFES_RETURN_IF_ERROR(dedup.Validate());
  if (cost_changed) ApplyDedupCosts(config);
  return Status::OK();
}

}  // namespace

Result<TaskType> TaskTypeFromName(std::string_view name) {
  for (TaskType type : kAllTaskTypes) {
    if (TaskTypeToString(type) == name) return type;
  }
  return Status::NotFound("unknown task type '" + std::string(name) + "'");
}

Result<EstimationConfig> ParseEffortConfig(std::string_view text) {
  EstimationConfig config;
  std::string section;
  size_t line_number = 0;

  for (const std::string& raw_line : Split(text, '\n')) {
    ++line_number;
    std::string_view line = Trim(raw_line);
    // Strip comments.
    size_t hash = line.find('#');
    if (hash != std::string_view::npos) {
      line = Trim(line.substr(0, hash));
    }
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') {
        return Status::ParseError("line " + std::to_string(line_number) +
                                  ": unterminated section header");
      }
      section = std::string(Trim(line.substr(1, line.size() - 2)));
      if (section != "settings" && section != "efforts" &&
          section != "dedup") {
        return Status::ParseError("line " + std::to_string(line_number) +
                                  ": unknown section '" + section + "'");
      }
      continue;
    }

    size_t equals = line.find('=');
    if (equals == std::string_view::npos) {
      return Status::ParseError("line " + std::to_string(line_number) +
                                ": expected 'key = value'");
    }
    std::string key(Trim(line.substr(0, equals)));
    std::string value(Trim(line.substr(equals + 1)));
    if (section.empty()) {
      return Status::ParseError("line " + std::to_string(line_number) +
                                ": key outside of a section");
    }

    if (section == "settings") {
      Status status = ApplySetting(&config.settings, key, value);
      if (!status.ok()) {
        return Status::ParseError("line " + std::to_string(line_number) +
                                  ": " + status.message());
      }
      continue;
    }

    if (section == "dedup") {
      Status status = ApplyDedupSetting(&config, key, value);
      if (!status.ok()) {
        // Keep the code: an unusable value (negative cost, zero block
        // size) stays kInvalidArgument, a malformed one kParseError.
        return Status(status.code(), "line " + std::to_string(line_number) +
                                         ": " + status.message());
      }
      continue;
    }

    // [efforts]
    if (key == "global_scale") {
      Result<double> scale = ParseNumber(value);
      if (!scale.ok()) {
        return Status::ParseError("line " + std::to_string(line_number) +
                                  ": " + scale.status().message());
      }
      // The same contract as EfesEngine::set_effort_model, which an
      // engine built straight from this model never runs through.
      if (*scale <= 0.0) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_number) +
            ": global_scale must be a finite positive number, got '" +
            value + "'");
      }
      config.model.set_global_scale(*scale);
      continue;
    }
    auto task_type = TaskTypeFromName(key);
    if (!task_type.ok()) {
      return Status::ParseError("line " + std::to_string(line_number) +
                                ": " + task_type.status().message());
    }
    auto formula = Formula::Parse(value);
    if (!formula.ok()) {
      return Status::ParseError("line " + std::to_string(line_number) +
                                ": " + formula.status().message());
    }
    std::string formula_text = formula->text();
    std::vector<std::string> formula_params =
        formula->ReferencedParameters();
    config.model.SetFunction(
        *task_type,
        [parsed = std::move(*formula)](const Task& task,
                                       const ExecutionSettings&) {
          return parsed.Evaluate(task);
        },
        std::move(formula_text), std::move(formula_params));
  }
  return config;
}

Result<EstimationConfig> LoadEffortConfig(const std::string& path) {
  Result<std::string> text = ReadFileToString(path);
  if (!text.ok()) {
    return Status(text.status().code(),
                  "cannot open config file: " + path);
  }
  return ParseEffortConfig(*text);
}

}  // namespace efes
