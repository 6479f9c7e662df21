// Ablation: what happens to each estimator when the source schema grows
// wider without the integration getting harder? We extend the normalized
// MusicBrainz-style source with 18 auxiliary lookup relations (54 extra
// attributes) that carry data but no correspondences — realistic schema
// noise. The true effort (simulated practitioner) moves a little (more
// schema to explore); EFES moves a little (same detected problems); the
// attribute-counting baseline scales linearly with the noise. This is the
// paper's core criticism of count-based estimation, isolated.

#include <cstdio>

#include "efes/baseline/counting_estimator.h"
#include "efes/common/string_util.h"
#include "efes/common/text_table.h"
#include "efes/experiment/default_pipeline.h"
#include "efes/scenario/ground_truth.h"
#include "efes/scenario/music.h"

namespace {

struct Row {
  size_t attributes = 0;
  double measured = 0.0;
  double efes = 0.0;
  double counting = 0.0;
};

efes::Result<Row> Measure(bool extended) {
  efes::MusicOptions options;
  options.disc_count = 200;
  options.extended_lookups = extended;
  EFES_ASSIGN_OR_RETURN(efes::IntegrationScenario scenario,
                        efes::MakeMusicScenario(
                            efes::MusicSchemaId::kMusicbrainz,
                            efes::MusicSchemaId::kDiscogs, options));
  Row row;
  row.attributes = scenario.TotalSourceAttributeCount();
  EFES_ASSIGN_OR_RETURN(
      efes::MeasuredEffort measured,
      efes::SimulateMeasuredEffort(scenario,
                                   efes::ExpectedQuality::kHighQuality,
                                   1234));
  row.measured = measured.total();
  efes::EfesEngine engine = efes::MakeDefaultEngine();
  EFES_ASSIGN_OR_RETURN(
      efes::EstimationResult result,
      engine.Run(scenario));
  row.efes = result.estimate.TotalMinutes();
  // A counting baseline calibrated on the *base* scenario: rate such
  // that it is exact there, to expose the drift in isolation.
  row.counting = 0.0;  // filled by the caller once the base rate is known
  return row;
}

}  // namespace

int main() {
  auto base = Measure(false);
  auto extended = Measure(true);
  if (!base.ok() || !extended.ok()) {
    std::fprintf(stderr, "measurement failed\n");
    return 1;
  }
  double rate = base->measured / static_cast<double>(base->attributes);
  base->counting = rate * static_cast<double>(base->attributes);
  extended->counting = rate * static_cast<double>(extended->attributes);

  std::printf(
      "Ablation: schema width vs. estimator stability (m1-d2, high "
      "quality).\nThe extended source adds 18 lookup relations that do "
      "not participate in\nthe integration. Counting is calibrated to be "
      "exact on the base schema.\n\n");
  efes::TextTable table;
  table.SetHeader({"Source schema", "Source attrs", "Measured [min]",
                   "Efes (uncalibrated) [min]", "Counting [min]"});
  auto add = [&](const char* label, const Row& row) {
    table.AddRow({label, std::to_string(row.attributes),
                  efes::FormatDouble(row.measured, 4),
                  efes::FormatDouble(row.efes, 4),
                  efes::FormatDouble(row.counting, 4)});
  };
  add("base (12 relations)", *base);
  add("extended (30 relations)", *extended);
  std::printf("%s", table.ToString().c_str());

  std::printf(
      "\nDrift from schema noise: measured %+.0f%%, Efes %+.0f%%, "
      "counting %+.0f%%.\n",
      (extended->measured / base->measured - 1.0) * 100.0,
      (extended->efes / base->efes - 1.0) * 100.0,
      (extended->counting / base->counting - 1.0) * 100.0);
  return 0;
}
