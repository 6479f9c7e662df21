// Tests for the experiment machinery: the RMSE formula, calibration
// fitting, and the cross-validated reproduction of Section 6.2.

#include <cmath>

#include <gtest/gtest.h>
#include <memory>

#include "efes/cache/profile_cache.h"
#include "efes/common/metrics.h"
#include "efes/common/string_util.h"
#include "efes/experiment/default_pipeline.h"
#include "efes/experiment/metrics.h"
#include "efes/experiment/study.h"

namespace efes {
namespace {

TEST(RelativeRmseTest, PerfectEstimatesZeroError) {
  EXPECT_DOUBLE_EQ(RelativeRmse({10, 20}, {10, 20}), 0.0);
}

TEST(RelativeRmseTest, PaperFormula) {
  // Two scenarios, relative errors 0.5 and -1.0:
  // sqrt((0.25 + 1.0) / 2).
  EXPECT_NEAR(RelativeRmse({10, 10}, {5, 20}),
              std::sqrt((0.25 + 1.0) / 2.0), 1e-12);
}

TEST(RelativeRmseTest, SkipsZeroMeasurements) {
  EXPECT_NEAR(RelativeRmse({0, 10}, {999, 5}), 0.5, 1e-12);
}

TEST(RelativeRmseTest, EmptyInputIsZero) {
  EXPECT_DOUBLE_EQ(RelativeRmse({}, {}), 0.0);
}

TEST(FitCalibrationScaleTest, RecoversExactScale) {
  // measured = 3 * raw for all points -> scale must be 3.
  EXPECT_NEAR(FitCalibrationScale({30, 60, 90}, {10, 20, 30}), 3.0, 1e-12);
}

TEST(FitCalibrationScaleTest, DegenerateInputsGiveUnitScale) {
  EXPECT_DOUBLE_EQ(FitCalibrationScale({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(FitCalibrationScale({10}, {0}), 1.0);
}

TEST(FitCalibrationScaleTest, MinimizesRelativeError) {
  std::vector<double> measured = {100, 200};
  std::vector<double> raw = {50, 150};
  double best = FitCalibrationScale(measured, raw);
  double best_error = RelativeRmse(measured, {best * 50, best * 150});
  for (double s : {best * 0.9, best * 1.1, best * 0.5, best * 2.0}) {
    EXPECT_LE(best_error, RelativeRmse(measured, {s * 50, s * 150}));
  }
}

TEST(DefaultPipelineTest, HasFourModules) {
  EfesEngine engine = MakeDefaultEngine();
  EXPECT_EQ(engine.module_count(), 4u);
}

TEST(DefaultPipelineTest, ModuleSubsetsAreValidatedAndCanonicallyOrdered) {
  auto subset = MakeEngineForModules("values,mapping");
  ASSERT_TRUE(subset.ok()) << subset.status();
  EXPECT_EQ(subset->module_count(), 2u);

  auto unknown = MakeEngineForModules("mapping,entities");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);

  auto duplicate = MakeEngineForModules("dedup,dedup");
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.status().code(), StatusCode::kInvalidArgument);
}

class CrossValidationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto studies = RunCrossValidatedStudies();
    ASSERT_TRUE(studies.ok());
    studies_ = std::make_unique<CrossValidatedStudies>(std::move(*studies));
  }
  static void TearDownTestSuite() {
    studies_.reset();
  }
  static std::unique_ptr<CrossValidatedStudies> studies_;
};

std::unique_ptr<CrossValidatedStudies> CrossValidationTest::studies_;

TEST_F(CrossValidationTest, EightOutcomesPerDomain) {
  EXPECT_EQ(studies_->bibliographic.outcomes.size(), 8u);
  EXPECT_EQ(studies_->music.outcomes.size(), 8u);
}

TEST_F(CrossValidationTest, EfesBeatsCountingInBothDomains) {
  // The paper's headline: EFES outperforms attribute counting, with the
  // larger margin in the value-heavy bibliographic domain.
  EXPECT_LT(studies_->bibliographic.efes_rmse,
            studies_->bibliographic.counting_rmse);
  EXPECT_LT(studies_->music.efes_rmse, studies_->music.counting_rmse);
  EXPECT_LT(studies_->overall_efes_rmse, studies_->overall_counting_rmse);
}

TEST_F(CrossValidationTest, OverallImprovementAtLeastFactor1Point5) {
  EXPECT_GT(studies_->overall_counting_rmse / studies_->overall_efes_rmse,
            1.5);
}

TEST_F(CrossValidationTest, IdentityScenarioHasNoEfesCleaningEffort) {
  // "source and target database have the same schema and similar data, so
  // there are no heterogeneities to deal with. While we can detect this,
  // the counting approach estimates considerable cleaning effort."
  for (const StudyResult* study :
       {&studies_->bibliographic, &studies_->music}) {
    for (const ScenarioOutcome& outcome : study->outcomes) {
      if (outcome.scenario == "s4-s4" || outcome.scenario == "d1-d2") {
        EXPECT_NEAR(outcome.efes_structure, 0.0, 1e-9) << outcome.scenario;
        EXPECT_NEAR(outcome.efes_values, 0.0, 1e-9) << outcome.scenario;
        EXPECT_GT(outcome.counting_cleaning, 0.0) << outcome.scenario;
      }
    }
  }
}

TEST_F(CrossValidationTest, MusicIsMappingDominatedForEfes) {
  // Section 6.2: "in this domain, there are fewer problems at the data
  // level and the effort is dominated by the mapping".
  double mapping = 0.0;
  double cleaning = 0.0;
  for (const ScenarioOutcome& outcome : studies_->music.outcomes) {
    if (outcome.quality != ExpectedQuality::kLowEffort) continue;
    mapping += outcome.efes_mapping;
    cleaning += outcome.efes_structure + outcome.efes_values;
  }
  EXPECT_GT(mapping, cleaning);
}

TEST_F(CrossValidationTest, BibliographicCleaningDominatesAtHighQuality) {
  double mapping = 0.0;
  double cleaning = 0.0;
  for (const ScenarioOutcome& outcome : studies_->bibliographic.outcomes) {
    if (outcome.quality != ExpectedQuality::kHighQuality) continue;
    mapping += outcome.efes_mapping;
    cleaning += outcome.efes_structure + outcome.efes_values;
  }
  EXPECT_GT(cleaning, mapping);
}

TEST_F(CrossValidationTest, StudyTextRendersFigureTables) {
  std::string text = studies_->bibliographic.ToText();
  EXPECT_NE(text.find("Bibliographic"), std::string::npos);
  EXPECT_NE(text.find("s1-s2"), std::string::npos);
  EXPECT_NE(text.find("rmse(Efes)"), std::string::npos);
  EXPECT_NE(text.find("Measured"), std::string::npos);
}

TEST_F(CrossValidationTest, BarChartRendersSegmentedBars) {
  std::string chart = studies_->bibliographic.ToBarChart(40);
  EXPECT_NE(chart.find("Bibliographic"), std::string::npos);
  EXPECT_NE(chart.find("Efes     |"), std::string::npos);
  EXPECT_NE(chart.find("Measured |"), std::string::npos);
  EXPECT_NE(chart.find("Counting |"), std::string::npos);
  // At least one segmented bar contains mapping and value segments.
  EXPECT_NE(chart.find('M'), std::string::npos);
  EXPECT_NE(chart.find('V'), std::string::npos);
  EXPECT_NE(chart.find('#'), std::string::npos);
  // No bar exceeds the requested width (label + "  " + total allowed).
  for (const std::string& line : Split(chart, '\n')) {
    size_t bar_start = line.find('|');
    if (bar_start == std::string::npos) continue;
    size_t bar_end = line.find("  ", bar_start);
    ASSERT_NE(bar_end, std::string::npos) << line;
    EXPECT_LE(bar_end - bar_start - 1, 40u + 2) << line;
  }
}

TEST_F(CrossValidationTest, DeterministicAcrossRuns) {
  auto again = RunCrossValidatedStudies();
  ASSERT_TRUE(again.ok());
  EXPECT_DOUBLE_EQ(again->overall_efes_rmse, studies_->overall_efes_rmse);
  EXPECT_DOUBLE_EQ(again->overall_counting_rmse,
                   studies_->overall_counting_rmse);
}

/// What `efes study` prints for `studies`.
std::string Rendered(const CrossValidatedStudies& studies) {
  return studies.bibliographic.ToText() + studies.music.ToText() +
         FormatDouble(studies.overall_efes_rmse, 6) + " " +
         FormatDouble(studies.overall_counting_rmse, 6);
}

TEST_F(CrossValidationTest, CachedStudyRendersAsUncached) {
  // Every run of the study profiles through the cache it is handed: the
  // cached study renders what the uncached one does, and a second study
  // through the same cache computes no profile at all.
  ProfileCache cache;
  auto cold = RunCrossValidatedStudies(1234, &cache);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(Rendered(*cold), Rendered(*studies_));
  EXPECT_GT(cache.entry_count(), 0u);
  const auto columns = [] {
    return MetricsRegistry::Global().Snapshot().CounterValue(
        "profiling.statistics.columns");
  };
  const uint64_t before = columns();
  auto warm = RunCrossValidatedStudies(1234, &cache);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(columns(), before);
  EXPECT_EQ(Rendered(*warm), Rendered(*studies_));
}

}  // namespace
}  // namespace efes
