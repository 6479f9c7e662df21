// Effort calculation functions and execution settings (Section 3.4).
//
// "For each task type [the user specifies] an effort-calculation function
// that can incorporate task parameters. [...] The framework uses these
// functions to estimate the effort for each of the tasks." The default
// model reproduces Table 9 of the paper, which assumes a practitioner
// armed with hand-written SQL and a basic admin tool. Execution settings
// (practitioner expertise, tool automation, criticality) scale the raw
// function values — the paper's configurability requirement.

#ifndef EFES_CORE_EFFORT_MODEL_H_
#define EFES_CORE_EFFORT_MODEL_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "efes/core/task.h"

namespace efes {

/// The circumstances under which the integration will be conducted
/// (Section 3.4, "(ii) Execution settings").
struct ExecutionSettings {
  /// Multiplier for practitioner expertise; < 1 = expert (faster),
  /// > 1 = novice.
  double practitioner_skill = 1.0;

  /// Multiplier for familiarity with the datasets; the experiments assume
  /// "the user has not seen the datasets before" = 1.0.
  double data_familiarity = 1.0;

  /// "Integrating medical prescriptions requires more attention (and
  /// therefore effort) than integrating music tracks": >= 1.
  double criticality = 1.0;

  /// A second-generation mapping tool (e.g. ++Spicy, Example 3.6/3.8) can
  /// generate executable mappings from correspondences.
  bool mapping_tool_available = false;

  /// Constant minutes for a tool-generated mapping (Example 3.8 uses 2).
  double mapping_tool_minutes = 2.0;

  /// Overall scaling applied to every task (combined multiplier).
  double OverallMultiplier() const {
    return practitioner_skill * data_familiarity * criticality;
  }
};

/// One effort-function evaluation, decomposed into the factors the
/// provenance layer records: minutes = base * multiplier * scale.
struct EffortExplanation {
  /// Raw function value before scaling; 0 when the type has no function.
  double base = 0.0;
  /// ExecutionSettings::OverallMultiplier() at evaluation time.
  double multiplier = 1.0;
  /// The model's global calibration scale.
  double scale = 1.0;
  double minutes = 0.0;
  /// False when no function is registered for the task's type.
  bool known = false;
  /// Human-readable formula, e.g. "3 * #FKs + 3 * #PKs + #atts +
  /// 3 * #tables" or the effort-config formula text.
  std::string function;
  /// Names of the task parameters the function reads.
  std::vector<std::string> parameters;
};

/// Maps task types to effort-calculation functions (minutes).
class EffortModel {
 public:
  using EffortFunction =
      std::function<double(const Task&, const ExecutionSettings&)>;

  /// An empty model: every unknown task estimates 0 minutes.
  EffortModel() = default;

  /// The Table 9 configuration of the paper.
  static EffortModel PaperDefault();

  /// Registers (or replaces) the function for `type`, with the
  /// explainability metadata Explain() reports: a human-readable
  /// `description` of the formula and the task `parameters` it reads.
  void SetFunction(TaskType type, EffortFunction function,
                   std::string description,
                   std::vector<std::string> parameters);
  bool HasFunction(TaskType type) const;

  /// Calibration knob: every estimate is multiplied by this factor (used
  /// by the cross-validation protocol of Section 6.2).
  void set_global_scale(double scale) { global_scale_ = scale; }
  double global_scale() const { return global_scale_; }

  /// Evaluates the function for the task's type, applies the execution
  /// settings multiplier and the global scale. Unknown types cost 0.
  double EstimateMinutes(const Task& task,
                         const ExecutionSettings& settings) const;

  /// EstimateMinutes with every factor broken out, for the provenance
  /// recorder. EstimateMinutes() is Explain().minutes, so the two can
  /// never drift apart.
  EffortExplanation Explain(const Task& task,
                            const ExecutionSettings& settings) const;

  /// Human-readable formula per task type (for the Table 9 printer).
  static std::string DescribeDefaultFunction(TaskType type);

 private:
  struct FunctionEntry {
    EffortFunction function;
    std::string description;
    std::vector<std::string> parameters;
  };

  std::map<TaskType, FunctionEntry> functions_;
  double global_scale_ = 1.0;
};

}  // namespace efes

#endif  // EFES_CORE_EFFORT_MODEL_H_
