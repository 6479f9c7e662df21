// Ablation: the value-fit threshold. Section 5.1: "we found 0.9 to be a
// good threshold to separate seamlessly integrating attribute pairs from
// those that had notably different characteristics." This sweep shows
// how the number of detected heterogeneities across both case-study
// domains responds to the threshold: a plateau around 0.9 separates the
// genuinely mismatched pairs from sampling noise.

#include <cstdio>

#include "efes/common/text_table.h"
#include "efes/scenario/bibliographic.h"
#include "efes/scenario/music.h"
#include "efes/values/value_module.h"

namespace {

size_t CountHeterogeneities(
    const std::vector<efes::IntegrationScenario>& scenarios,
    double threshold) {
  efes::ValueFitOptions options;
  options.fit_threshold = threshold;
  efes::ValueModule module(options);
  size_t total = 0;
  for (const efes::IntegrationScenario& scenario : scenarios) {
    auto report = module.AssessComplexity(scenario, efes::RunContext{});
    if (report.ok()) total += (*report)->ProblemCount();
  }
  return total;
}

}  // namespace

int main() {
  auto biblio = efes::MakeAllBiblioScenarios();
  auto music = efes::MakeAllMusicScenarios();
  if (!biblio.ok() || !music.ok()) {
    std::fprintf(stderr, "scenario construction failed\n");
    return 1;
  }

  std::printf(
      "Ablation: value-fit threshold sweep (Section 5.1's 0.9)\n"
      "Detected value heterogeneities across the four scenarios of each\n"
      "domain. Identity scenarios contribute only false positives, so a\n"
      "good threshold keeps the counts stable around the true mismatch\n"
      "count while 0.95+ starts flagging same-population sampling noise.\n\n");

  efes::TextTable table;
  table.SetHeader({"Threshold", "Bibliographic findings", "Music findings"});
  for (double threshold :
       {0.50, 0.60, 0.70, 0.80, 0.85, 0.90, 0.95, 0.99}) {
    table.AddRow({std::to_string(threshold).substr(0, 4),
                  std::to_string(CountHeterogeneities(*biblio, threshold)),
                  std::to_string(CountHeterogeneities(*music, threshold))});
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}
