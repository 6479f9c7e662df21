// The experimental study of Section 6: runs EFES, the simulated
// practitioner (measured ground truth), and the counting baseline on both
// case-study domains, calibrating EFES and the baseline by cross
// validation ("we used the effort measurements from the bibliographic
// domain to calibrate the parameters [...] for the estimation of the
// music domain scenarios, and vice versa").

#ifndef EFES_EXPERIMENT_STUDY_H_
#define EFES_EXPERIMENT_STUDY_H_

#include <string>
#include <vector>

#include "efes/common/result.h"
#include "efes/core/integration_scenario.h"
#include "efes/core/task.h"

namespace efes {

class ProfileCache;

/// One bar triple of Figures 6/7: a scenario at one expected quality.
struct ScenarioOutcome {
  std::string scenario;
  ExpectedQuality quality = ExpectedQuality::kLowEffort;

  // Measured (ground truth), with breakdown.
  double measured_total = 0.0;
  double measured_mapping = 0.0;
  double measured_structure = 0.0;
  double measured_values = 0.0;

  // EFES estimate (calibrated), with breakdown.
  double efes_total = 0.0;
  double efes_mapping = 0.0;
  double efes_structure = 0.0;
  double efes_values = 0.0;

  // Counting baseline estimate (calibrated), with its coarse breakdown.
  double counting_total = 0.0;
  double counting_mapping = 0.0;
  double counting_cleaning = 0.0;
};

/// All outcomes of one domain plus the error measures.
struct StudyResult {
  std::string domain;
  std::vector<ScenarioOutcome> outcomes;
  double efes_rmse = 0.0;
  double counting_rmse = 0.0;

  /// Renders the Figure 6/7-style table: one row per (scenario, quality)
  /// with the EFES / Measured / Counting columns and breakdowns, followed
  /// by the RMSE line.
  std::string ToText() const;

  /// Renders the figures' bar-chart form in ASCII: per (scenario,
  /// quality) one bar each for Efes / Measured / Counting, the Efes and
  /// Measured bars segmented into mapping (M), structure cleaning (S),
  /// and value cleaning (V).
  std::string ToBarChart(size_t width = 60) const;
};

struct StudyOptions {
  /// Seed for the ground-truth practitioner simulation.
  uint64_t ground_truth_seed = 1234;
  /// EFES calibration scale and counting minutes-per-attribute; values
  /// <= 0 mean "uncalibrated" (scale 1, Harden default rate).
  double efes_scale = 1.0;
  double counting_minutes_per_attribute = -1.0;
};

/// Runs one domain's scenarios under both expected qualities. EFES and
/// the simulated practitioner profile through `cache` when it is
/// non-null; the result is the same either way.
Result<StudyResult> RunStudy(const std::string& domain,
                             const std::vector<IntegrationScenario>& scenarios,
                             const StudyOptions& options,
                             ProfileCache* cache = nullptr);

/// Full cross-validated reproduction of Section 6.2: calibrate on the
/// bibliographic domain, evaluate on music, and vice versa.
struct CrossValidatedStudies {
  StudyResult bibliographic;
  StudyResult music;
  double overall_efes_rmse = 0.0;
  double overall_counting_rmse = 0.0;
};

/// Every run of the study, training and evaluation alike, profiles
/// through `cache` when it is non-null.
Result<CrossValidatedStudies> RunCrossValidatedStudies(
    uint64_t ground_truth_seed = 1234, ProfileCache* cache = nullptr);

}  // namespace efes

#endif  // EFES_EXPERIMENT_STUDY_H_
