// Multi-source integration (the paper's Section 3.1 allows "a set of
// source databases"; Section 3.1 also warns that "all sources might be
// free of duplicates, but there still might be target duplicates when
// they are combined"). Two discographic catalogs are integrated into a
// target that already holds data; the cross-source detector (Lemma 2's
// overlapping union) surfaces the unique-key collisions none of the
// individual assessments can see.

#include <cstdio>

#include "efes/core/engine.h"
#include "efes/mapping/mapping_module.h"
#include "efes/scenario/music.h"
#include "efes/structure/structure_module.h"
#include "efes/values/value_module.h"

int main() {
  // Build two independently curated catalogs plus the target from the
  // shared discographic domain (disjoint disc samples, shared label and
  // artist vocabulary — as in reality).
  efes::MusicOptions first;
  first.seed = 11;
  first.disc_count = 120;
  efes::MusicOptions second;
  second.seed = 99;
  second.disc_count = 150;

  auto scenario = efes::MakeMusicScenario(efes::MusicSchemaId::kDiscogs,
                                          efes::MusicSchemaId::kDiscogs,
                                          first);
  auto other = efes::MakeMusicScenario(efes::MusicSchemaId::kDiscogs,
                                       efes::MusicSchemaId::kDiscogs,
                                       second);
  if (!scenario.ok() || !other.ok()) {
    std::fprintf(stderr, "scenario construction failed\n");
    return 1;
  }
  scenario->name = "two-catalogs";
  scenario->sources.push_back(std::move(other->sources[0]));

  // Engine with cross-source detection enabled.
  efes::StructureModule::Options structure_options;
  structure_options.detector.detect_cross_source_conflicts = true;
  efes::EfesEngine engine;
  engine.AddModule(std::make_unique<efes::MappingModule>());
  engine.AddModule(
      std::make_unique<efes::StructureModule>(structure_options));
  engine.AddModule(std::make_unique<efes::ValueModule>());

  auto result =
      engine.Run(*scenario);
  if (!result.ok()) {
    std::fprintf(stderr, "estimation failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("%s\n", result->module_runs[1].report->ToText().c_str());
  std::printf(
      "The '(combined)' section lists unique-key collisions that exist in\n"
      "no single source: label and release identities overlap between the\n"
      "two catalogs and the pre-existing target data, so the practitioner\n"
      "must deduplicate after the union (Aggregate tuples).\n\n");
  std::printf("Total estimated effort for both sources: %.0f minutes\n",
              result->estimate.TotalMinutes());
  return 0;
}
