// The production side of Figure 1: an integration executor that actually
// *performs* the integration the estimation side only reasons about.
//
// Given a scenario and an expected result quality, the executor
//   1. materializes the mapping: every anchor tuple of a source relation
//      becomes a target tuple, cross-relation attribute values are pulled
//      in along the same CSG paths the structure detector matches,
//      surrogate keys are generated, and foreign keys are remapped to the
//      generated keys;
//   2. applies the quality strategy to the conflicts that arise — merging
//      or keeping-any for multiple values, creating enclosing tuples or
//      dropping for detached values, filling or rejecting for missing
//      mandatory values, best-effort converting or dropping for
//      uncastable values;
//   3. repairs the residual constraint violations of the combined target
//      instance (duplicate keys, dangling references) until it is valid.
//
// The executor exists to *validate* the estimation pipeline: the work it
// counts while integrating (merges performed, tuples created, values
// filled) should equal what the detectors predicted without integrating,
// and the high-quality result must satisfy every target constraint.

#ifndef EFES_EXECUTE_INTEGRATION_EXECUTOR_H_
#define EFES_EXECUTE_INTEGRATION_EXECUTOR_H_

#include <string>
#include <vector>

#include "efes/common/result.h"
#include "efes/core/integration_scenario.h"
#include "efes/core/task.h"

namespace efes {

/// Work actually performed during an execution — the executor-side
/// analogue of the planner's task repetition counts.
struct ExecutionReport {
  size_t tuples_integrated = 0;

  /// Tuples whose attribute received several values and was merged
  /// (high quality) — the planner's Merge values repetitions.
  size_t values_merged = 0;
  /// Tuples where one of several values was kept (low effort).
  size_t values_kept_any = 0;
  /// Target tuples created to enclose detached source values (high
  /// quality) — the planner's Add tuples repetitions.
  size_t tuples_added = 0;
  /// Detached source values dropped (low effort).
  size_t values_dropped_detached = 0;
  /// Mandatory values filled in (high quality) — Add missing values.
  size_t values_added = 0;
  /// Tuples rejected over missing mandatory values (low effort).
  size_t tuples_rejected = 0;
  /// Values converted best-effort because they did not cast to the
  /// target type (high quality).
  size_t values_converted = 0;
  /// Uncastable values dropped (low effort).
  size_t values_dropped_uncastable = 0;
  /// Duplicate-key tuples aggregated during the repair pass.
  size_t tuples_aggregated = 0;
  /// Dangling references deleted/nulled during the repair pass.
  size_t dangling_repaired = 0;

  std::string ToString() const;
};

class IntegrationExecutor {
 public:
  struct Options {
    ExpectedQuality quality = ExpectedQuality::kHighQuality;
    /// Placeholder used when a mandatory text value must be invented.
    std::string missing_text = "(researched)";
    /// Safety cap on the residual-repair fixpoint loop.
    size_t max_repair_rounds = 8;
  };

  IntegrationExecutor() = default;
  explicit IntegrationExecutor(Options options)
      : options_(std::move(options)) {}

  /// Performs the integration and returns the integrated target database
  /// (pre-existing target data included). `report`, when non-null,
  /// receives the work counters. The returned instance satisfies the
  /// target constraints (both qualities reach validity — by repair or by
  /// removal — unless max_repair_rounds is exceeded, which fails with
  /// kUnsatisfiable).
  Result<Database> Execute(const IntegrationScenario& scenario,
                           ExecutionReport* report = nullptr) const;

 private:
  Options options_;
};

}  // namespace efes

#endif  // EFES_EXECUTE_INTEGRATION_EXECUTOR_H_
