// Project planning with EFES (the Section 1 use cases): budget the
// integration with a custom effort configuration, highlight the hard
// parts of the schema for a kickoff slide (Graphviz heatmap), decide the
// execution order via the cost-benefit curve, and monitor progress as
// tasks complete.

#include <cstdio>
#include <fstream>
#include <set>

#include "efes/core/effort_config.h"
#include "efes/experiment/cost_benefit.h"
#include "efes/experiment/default_pipeline.h"
#include "efes/experiment/progress.h"
#include "efes/experiment/visualization.h"
#include "efes/scenario/paper_example.h"

int main() {
  auto scenario = efes::MakePaperExample();
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }

  // 1. Budget: our team has a seasoned practitioner (20% faster than the
  //    paper's assumptions) but the project is business-critical, and we
  //    negotiated a different rate for missing-value research.
  auto config = efes::ParseEffortConfig(R"(
[settings]
practitioner_skill = 0.8
criticality       = 1.25

[efforts]
Add missing values = 1.5 * values   # offshore data-research desk
)");
  if (!config.ok()) {
    std::fprintf(stderr, "config: %s\n",
                 config.status().ToString().c_str());
    return 1;
  }
  efes::EfesEngine engine =
      efes::MakeDefaultEngine(std::move(config->model));
  efes::RunOptions options;
  options.settings = config->settings;
  auto result = engine.Run(*scenario, options);
  if (!result.ok()) {
    std::fprintf(stderr, "estimation: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("Budget under our team configuration: %.0f minutes\n\n",
              result->estimate.TotalMinutes());

  // 2. Kickoff slide: where do the problems live? (Render with
  //    `dot -Tsvg problems.dot -o problems.svg`.)
  efes::ProblemCounts problems = efes::CollectProblemCounts(*result);
  std::printf("Problem hotspots in the target schema:\n");
  for (const auto& [element, count] : problems) {
    std::printf("  %-20s %zu\n", element.c_str(), count);
  }
  std::string dot = efes::RenderProblemHeatmapDot(*scenario, problems);
  const char* dot_path = "problems.dot";
  std::ofstream(dot_path) << dot;
  std::printf("\nGraphviz heatmap written to %s (%zu bytes)\n\n", dot_path,
              dot.size());

  // 3. Execution order: quality per minute.
  efes::CostBenefitCurve curve =
      efes::AnalyzeCostBenefit(result->estimate);
  std::printf("Cost-benefit plan:\n%s\n", curve.ToText().c_str());

  // 4. Friday status call: the first three plan steps are done.
  std::set<size_t> done = {0, 1, 2};
  efes::ProgressReport progress =
      efes::TrackProgress(result->estimate, done);
  std::printf("Status: %s\n", progress.ToString().c_str());
  std::printf("Remaining by category: mapping %.0f, structure %.0f, "
              "values %.0f minutes\n",
              progress.remaining_mapping, progress.remaining_structure,
              progress.remaining_values);
  return 0;
}
