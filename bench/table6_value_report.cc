// Regenerates Table 6: the complexity report of the value fit detector on
// the running example (the length -> duration heterogeneity).

#include <cstdio>

#include "efes/scenario/paper_example.h"
#include "efes/values/value_module.h"

int main() {
  auto scenario = efes::MakePaperExample();
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }
  efes::ValueModule module;
  auto report = module.AssessComplexity(*scenario, efes::RunContext{});
  if (!report.ok()) {
    std::fprintf(stderr, "detector: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("Table 6: Complexity report of the value fit detector\n\n");
  std::printf("%s", (*report)->ToText().c_str());
  return 0;
}
