// The two Section 6 case studies end to end: builds the bibliographic and
// discographic scenario suites, shows one complexity breakdown per
// domain, and runs the full cross-validated comparison of EFES vs. the
// attribute-counting baseline vs. the measured (simulated practitioner)
// ground truth.

#include <cstdio>

#include "efes/experiment/default_pipeline.h"
#include "efes/experiment/study.h"
#include "efes/scenario/bibliographic.h"
#include "efes/scenario/music.h"

int main() {
  // A close look at one scenario per domain.
  auto biblio = efes::MakeBiblioScenario(efes::BiblioSchemaId::kS1,
                                         efes::BiblioSchemaId::kS2, {});
  auto music = efes::MakeMusicScenario(efes::MusicSchemaId::kMusicbrainz,
                                       efes::MusicSchemaId::kDiscogs, {});
  if (!biblio.ok() || !music.ok()) {
    std::fprintf(stderr, "scenario construction failed\n");
    return 1;
  }

  efes::EfesEngine engine = efes::MakeDefaultEngine();
  for (const efes::IntegrationScenario* scenario :
       {&*biblio, &*music}) {
    auto result = engine.Run(*scenario);
    if (!result.ok()) {
      std::fprintf(stderr, "estimation failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("=== Scenario %s ===\n", scenario->name.c_str());
    std::printf("  Mapping:              %7.1f min\n",
                result->estimate.CategoryMinutes(
                    efes::TaskCategory::kMapping));
    std::printf("  Cleaning (Structure): %7.1f min\n",
                result->estimate.CategoryMinutes(
                    efes::TaskCategory::kCleaningStructure));
    std::printf("  Cleaning (Values):    %7.1f min\n",
                result->estimate.CategoryMinutes(
                    efes::TaskCategory::kCleaningValues));
    std::printf("  Total:                %7.1f min\n\n",
                result->estimate.TotalMinutes());
  }

  std::printf(
      "Note the inversion: the bibliographic scenario is dominated by\n"
      "cleaning (sloppy hand-entered values), the music scenario by\n"
      "mapping (a 12-relation normalized schema) — Section 6.2's core\n"
      "observation.\n\n");

  // The full cross-validated study (Figures 6 and 7).
  auto studies = efes::RunCrossValidatedStudies();
  if (!studies.ok()) {
    std::fprintf(stderr, "study failed: %s\n",
                 studies.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", studies->bibliographic.ToText().c_str());
  std::printf("%s\n", studies->music.ToText().c_str());
  std::printf("Overall rmse: Efes %.3f vs Counting %.3f (factor %.1fx)\n",
              studies->overall_efes_rmse, studies->overall_counting_rmse,
              studies->overall_counting_rmse / studies->overall_efes_rmse);
  return 0;
}
