// Regenerates Table 2: the mapping complexity report of the running
// example scenario (Figure 2).

#include <cstdio>

#include "efes/mapping/mapping_module.h"
#include "efes/scenario/paper_example.h"

int main() {
  auto scenario = efes::MakePaperExample();
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }
  efes::MappingModule module;
  auto report = module.AssessComplexity(*scenario, efes::RunContext{});
  if (!report.ok()) {
    std::fprintf(stderr, "detector: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "Table 2: Mapping complexity report of the scenario in Figure 2\n\n");
  std::printf("%s", (*report)->ToText().c_str());
  return 0;
}
