// Regenerates Table 3: the complexity report of the structure conflict
// detector on the running example — the paper's 503 / 102 violation
// counts arise from the generated instance.

#include <cstdio>

#include "efes/structure/structure_module.h"
#include "efes/scenario/paper_example.h"

int main() {
  auto scenario = efes::MakePaperExample();
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }
  efes::StructureModule module;
  auto report = module.AssessComplexity(*scenario, efes::RunContext{});
  if (!report.ok()) {
    std::fprintf(stderr, "detector: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "Table 3: Complexity report of the structure conflict detector\n\n");
  std::printf("%s", (*report)->ToText().c_str());

  const auto& structure_report =
      static_cast<const efes::StructureComplexityReport&>(**report);
  std::printf("\nMatched source relationships:\n");
  for (const efes::SourceStructureAssessment& source :
       structure_report.sources()) {
    for (const efes::StructureConflict& conflict : source.conflicts) {
      std::printf("  %s\n    inferred %s via %s\n",
                  conflict.target_constraint.c_str(),
                  conflict.inferred.ToString().c_str(),
                  conflict.source_path.c_str());
    }
  }
  return 0;
}
