// The "production side" of Figure 1: a simulated integration practitioner
// whose measured effort provides the ground truth for the experiments.
//
// The original study measured wall-clock minutes of a human integrating
// the scenarios with SQL and pgAdmin. We substitute a perfect-information
// practitioner model: it enumerates the *true* work items of the scenario
// (the mapping queries to write, the actual constraint violations in the
// data, the value conversions needed) and prices them with a cost model
// that deliberately differs from EFES's Table 9 configuration — sublinear
// batch effects, schema-exploration and setup overheads that EFES does
// not model, and per-component lognormal noise for human variance. EFES
// and the counting baseline never see these prices; they are calibrated
// against them by cross validation only, exactly like the paper.

#ifndef EFES_SCENARIO_GROUND_TRUTH_H_
#define EFES_SCENARIO_GROUND_TRUTH_H_

#include <string>

#include "efes/common/result.h"
#include "efes/core/integration_scenario.h"
#include "efes/core/task.h"

namespace efes {

class ProfileCache;

/// The true per-work-item prices (minutes) of the simulated practitioner.
struct GroundTruthModel {
  // --- Mapping -------------------------------------------------------------
  double scenario_setup = 5.0;       // connecting, sanity queries
  double per_source_relation = 2.0;   // schema exploration
  double per_connection_base = 2.5;   // writing + testing each INSERT..SELECT
  double per_join_table = 3.0;        // writing/debugging each join...
  double join_exponent = 1.55;         // ...which compounds: a 5-way join is
                                      // far harder to debug than 5 one-way
                                      // copies (cost = per_join_table *
                                      // tables^join_exponent)
  double per_copied_attribute = 1.0;
  double per_generated_key = 3.2;
  double per_foreign_key = 3.5;

  // --- Structure cleaning, high quality -------------------------------------
  double missing_value_each = 2.0;     // investigate + provide one value
  double merge_script = 12.0;          // one aggregation script
  double merge_each = 0.008;           // per-row validation on top
  double detached_script = 6.0;        // INSERT..SELECT for detached values
  double detached_each = 0.01;
  double dangling_each = 1.1;          // resolve one dangling reference
  double unique_script = 7.5;          // dedup script per violated key

  // --- Structure cleaning, low effort ---------------------------------------
  double structure_script_low = 4.5;   // one DELETE/UPDATE per conflict

  // --- Value cleaning --------------------------------------------------------
  double convert_script = 24.0;        // transformation script + validation
  double convert_each_distinct = 0.28; // value-mapping table maintenance
  double convert_distinct_exponent = 0.95;  // batch learning effect
  double drop_script_low = 8.0;
  double generalize_each_distinct = 0.45;
  double refine_each_value = 0.5;
  double add_value_each = 2.0;

  // --- Deduplication ---------------------------------------------------------
  double dedup_review_setup = 6.0;     // similarity query + review sheet
  double cluster_merge_each = 1.7;     // build one golden record
  double pair_check_each = 0.4;        // eyeball one candidate pair...
  double pair_exponent = 0.93;         // ...with a batch learning effect
  double dedup_drop_script_low = 7.0;  // keep-one-drop-rest script

  // --- Human variance --------------------------------------------------------
  /// Sigma of the multiplicative lognormal noise per component.
  double noise_sigma = 0.15;
};

/// Measured effort with the Figure 6/7 breakdown.
struct MeasuredEffort {
  double mapping_minutes = 0.0;
  double structure_minutes = 0.0;
  double value_minutes = 0.0;
  double dedup_minutes = 0.0;

  double total() const {
    return mapping_minutes + structure_minutes + value_minutes +
           dedup_minutes;
  }
};

/// Simulates the integration of `scenario` at the given result quality and
/// returns the measured effort. Deterministic for a fixed (scenario name,
/// quality, seed) triple. The detectors that enumerate the true work
/// items profile through `cache` when it is non-null; the result is the
/// same either way.
Result<MeasuredEffort> SimulateMeasuredEffort(
    const IntegrationScenario& scenario, ExpectedQuality quality,
    uint64_t seed, const GroundTruthModel& model = {},
    ProfileCache* cache = nullptr);

}  // namespace efes

#endif  // EFES_SCENARIO_GROUND_TRUTH_H_
