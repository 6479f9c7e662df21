#include "efes/experiment/study.h"

#include <algorithm>
#include <sstream>

#include "efes/baseline/counting_estimator.h"
#include "efes/common/string_util.h"
#include "efes/common/text_table.h"
#include "efes/experiment/default_pipeline.h"
#include "efes/experiment/metrics.h"
#include "efes/scenario/bibliographic.h"
#include "efes/scenario/ground_truth.h"
#include "efes/scenario/music.h"
#include "efes/common/metrics.h"
#include "efes/telemetry/trace.h"

namespace efes {

namespace {

constexpr ExpectedQuality kQualities[] = {ExpectedQuality::kLowEffort,
                                          ExpectedQuality::kHighQuality};

std::string QualityLabel(ExpectedQuality quality) {
  return quality == ExpectedQuality::kLowEffort ? "low eff." : "high qual.";
}

}  // namespace

std::string StudyResult::ToText() const {
  std::ostringstream oss;
  oss << "=== " << domain << " study ===\n";
  TextTable table;
  table.SetHeader({"Scenario", "Quality", "Efes [min]", "Measured [min]",
                   "Counting [min]", "Efes (map/str/val)",
                   "Measured (map/str/val)"});
  for (const ScenarioOutcome& outcome : outcomes) {
    table.AddRow(
        {outcome.scenario, QualityLabel(outcome.quality),
         FormatDouble(outcome.efes_total, 4),
         FormatDouble(outcome.measured_total, 4),
         FormatDouble(outcome.counting_total, 4),
         FormatDouble(outcome.efes_mapping, 4) + "/" +
             FormatDouble(outcome.efes_structure, 4) + "/" +
             FormatDouble(outcome.efes_values, 4),
         FormatDouble(outcome.measured_mapping, 4) + "/" +
             FormatDouble(outcome.measured_structure, 4) + "/" +
             FormatDouble(outcome.measured_values, 4)});
  }
  oss << table.ToString();
  oss << "rmse(Efes) = " << FormatDouble(efes_rmse, 4)
      << ", rmse(Counting) = " << FormatDouble(counting_rmse, 4) << "\n";
  return oss.str();
}

std::string StudyResult::ToBarChart(size_t width) const {
  double max_minutes = 1.0;
  for (const ScenarioOutcome& outcome : outcomes) {
    max_minutes = std::max({max_minutes, outcome.efes_total,
                            outcome.measured_total,
                            outcome.counting_total});
  }
  auto segmented_bar = [&](double mapping, double structure,
                           double values) {
    auto chars = [&](double minutes) {
      return static_cast<size_t>(minutes / max_minutes *
                                 static_cast<double>(width));
    };
    std::string bar(chars(mapping), 'M');
    bar.append(chars(structure), 'S');
    bar.append(chars(values), 'V');
    return bar;
  };
  std::ostringstream oss;
  oss << domain << " (bar width = " << FormatDouble(max_minutes, 4)
      << " min; M mapping, S structure cleaning, V value cleaning, "
      << "# unattributed)\n";
  for (const ScenarioOutcome& outcome : outcomes) {
    std::string label = outcome.scenario + " (" +
                        QualityLabel(outcome.quality) + ")";
    oss << label << "\n";
    oss << "  Efes     |"
        << segmented_bar(outcome.efes_mapping, outcome.efes_structure,
                         outcome.efes_values)
        << "  " << FormatDouble(outcome.efes_total, 4) << "\n";
    oss << "  Measured |"
        << segmented_bar(outcome.measured_mapping,
                         outcome.measured_structure,
                         outcome.measured_values)
        << "  " << FormatDouble(outcome.measured_total, 4) << "\n";
    oss << "  Counting |"
        << std::string(static_cast<size_t>(outcome.counting_total /
                                           max_minutes *
                                           static_cast<double>(width)),
                       '#')
        << "  " << FormatDouble(outcome.counting_total, 4) << "\n";
  }
  return oss.str();
}

Result<StudyResult> RunStudy(
    const std::string& domain,
    const std::vector<IntegrationScenario>& scenarios,
    const StudyOptions& options, ProfileCache* cache) {
  EffortModel model = EffortModel::PaperDefault();
  if (options.efes_scale > 0.0) {
    model.set_global_scale(options.efes_scale);
  }
  EfesEngine engine = MakeDefaultEngine(std::move(model));
  CountingEstimator counting(options.counting_minutes_per_attribute);
  RunOptions run_options;
  run_options.cache = cache;

  StudyResult result;
  result.domain = domain;
  std::vector<double> measured_totals;
  std::vector<double> efes_totals;
  std::vector<double> counting_totals;

  static Histogram& scenario_ms =
      MetricsRegistry::Global().GetHistogram("study.scenario.ms");
  TraceSpan study_span("study." + domain);
  for (const IntegrationScenario& scenario : scenarios) {
    for (ExpectedQuality quality : kQualities) {
      TraceSpan scenario_span(
          "study." + domain + "." + scenario.name + "." +
              std::string(quality == ExpectedQuality::kLowEffort ? "low"
                                                                 : "high"),
          nullptr, &scenario_ms);
      MetricsRegistry::Global()
          .GetCounter("study.scenario.count")
          .Increment();
      ScenarioOutcome outcome;
      outcome.scenario = scenario.name;
      outcome.quality = quality;

      EFES_ASSIGN_OR_RETURN(
          MeasuredEffort measured,
          SimulateMeasuredEffort(scenario, quality,
                                 options.ground_truth_seed, {}, cache));
      outcome.measured_total = measured.total();
      outcome.measured_mapping = measured.mapping_minutes;
      outcome.measured_structure = measured.structure_minutes;
      outcome.measured_values = measured.value_minutes;

      run_options.quality = quality;
      EFES_ASSIGN_OR_RETURN(EstimationResult estimation,
                            engine.Run(scenario, run_options));
      outcome.efes_total = estimation.estimate.TotalMinutes();
      outcome.efes_mapping =
          estimation.estimate.CategoryMinutes(TaskCategory::kMapping);
      outcome.efes_structure = estimation.estimate.CategoryMinutes(
          TaskCategory::kCleaningStructure);
      outcome.efes_values =
          estimation.estimate.CategoryMinutes(TaskCategory::kCleaningValues);

      CountingEstimator::Estimate count = counting.EstimateEffort(scenario);
      outcome.counting_total = count.total_minutes;
      outcome.counting_mapping = count.mapping_minutes;
      outcome.counting_cleaning = count.cleaning_minutes;

      measured_totals.push_back(outcome.measured_total);
      efes_totals.push_back(outcome.efes_total);
      counting_totals.push_back(outcome.counting_total);
      result.outcomes.push_back(std::move(outcome));
    }
  }

  result.efes_rmse = RelativeRmse(measured_totals, efes_totals);
  result.counting_rmse = RelativeRmse(measured_totals, counting_totals);
  return result;
}

namespace {

/// Raw (uncalibrated) totals of one domain, used as training data.
struct TrainingData {
  std::vector<double> measured;
  std::vector<double> efes_raw;
  std::vector<double> attribute_counts;
};

Result<TrainingData> CollectTrainingData(
    const std::vector<IntegrationScenario>& scenarios, uint64_t seed,
    ProfileCache* cache) {
  EfesEngine engine = MakeDefaultEngine();
  RunOptions run_options;
  run_options.cache = cache;
  TrainingData data;
  for (const IntegrationScenario& scenario : scenarios) {
    for (ExpectedQuality quality : kQualities) {
      EFES_ASSIGN_OR_RETURN(
          MeasuredEffort measured,
          SimulateMeasuredEffort(scenario, quality, seed, {}, cache));
      run_options.quality = quality;
      EFES_ASSIGN_OR_RETURN(EstimationResult estimation,
                            engine.Run(scenario, run_options));
      data.measured.push_back(measured.total());
      data.efes_raw.push_back(estimation.estimate.TotalMinutes());
      data.attribute_counts.push_back(
          static_cast<double>(scenario.TotalSourceAttributeCount()));
    }
  }
  return data;
}

/// Calibration parameters trained on one domain.
struct Calibration {
  double efes_scale = 1.0;
  double counting_minutes_per_attribute = 0.0;
};

Calibration Train(const TrainingData& data) {
  Calibration calibration;
  calibration.efes_scale = FitCalibrationScale(data.measured, data.efes_raw);
  calibration.counting_minutes_per_attribute =
      FitCalibrationScale(data.measured, data.attribute_counts);
  return calibration;
}

}  // namespace

Result<CrossValidatedStudies> RunCrossValidatedStudies(
    uint64_t ground_truth_seed, ProfileCache* cache) {
  EFES_ASSIGN_OR_RETURN(std::vector<IntegrationScenario> biblio,
                        MakeAllBiblioScenarios());
  EFES_ASSIGN_OR_RETURN(std::vector<IntegrationScenario> music,
                        MakeAllMusicScenarios());

  EFES_ASSIGN_OR_RETURN(TrainingData biblio_data,
                        CollectTrainingData(biblio, ground_truth_seed, cache));
  EFES_ASSIGN_OR_RETURN(TrainingData music_data,
                        CollectTrainingData(music, ground_truth_seed, cache));

  // Cross validation: music is evaluated with parameters trained on the
  // bibliographic measurements, and vice versa.
  Calibration from_biblio = Train(biblio_data);
  Calibration from_music = Train(music_data);

  StudyOptions biblio_options;
  biblio_options.ground_truth_seed = ground_truth_seed;
  biblio_options.efes_scale = from_music.efes_scale;
  biblio_options.counting_minutes_per_attribute =
      from_music.counting_minutes_per_attribute;

  StudyOptions music_options;
  music_options.ground_truth_seed = ground_truth_seed;
  music_options.efes_scale = from_biblio.efes_scale;
  music_options.counting_minutes_per_attribute =
      from_biblio.counting_minutes_per_attribute;

  CrossValidatedStudies studies;
  EFES_ASSIGN_OR_RETURN(
      studies.bibliographic,
      RunStudy("Bibliographic", biblio, biblio_options, cache));
  EFES_ASSIGN_OR_RETURN(studies.music,
                        RunStudy("Music", music, music_options, cache));

  // Overall RMSE over all eight scenarios (Section 6.2's closing numbers).
  std::vector<double> measured;
  std::vector<double> efes;
  std::vector<double> counting;
  for (const StudyResult* study : {&studies.bibliographic, &studies.music}) {
    for (const ScenarioOutcome& outcome : study->outcomes) {
      measured.push_back(outcome.measured_total);
      efes.push_back(outcome.efes_total);
      counting.push_back(outcome.counting_total);
    }
  }
  studies.overall_efes_rmse = RelativeRmse(measured, efes);
  studies.overall_counting_rmse = RelativeRmse(measured, counting);
  return studies;
}

}  // namespace efes
