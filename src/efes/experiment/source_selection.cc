#include "efes/experiment/source_selection.h"

#include <algorithm>

#include "efes/common/string_util.h"
#include "efes/common/text_table.h"

namespace efes {

Result<std::vector<SourceRanking>> RankSources(
    const EfesEngine& engine,
    const std::vector<IntegrationScenario>& candidates,
    ExpectedQuality quality, const ExecutionSettings& settings) {
  std::vector<SourceRanking> rankings;
  RunOptions options;
  options.quality = quality;
  options.settings = settings;
  for (const IntegrationScenario& candidate : candidates) {
    EFES_ASSIGN_OR_RETURN(EstimationResult result,
                          engine.Run(candidate, options));
    SourceRanking ranking;
    ranking.scenario = candidate.name;
    ranking.estimated_minutes = result.estimate.TotalMinutes();
    for (const ModuleRun& run : result.module_runs) {
      if (run.module == "mapping") {
        ranking.mapping_connections = run.report->ProblemCount();
      } else if (run.module == "structure") {
        ranking.structural_conflicts = run.report->ProblemCount();
      } else if (run.module == "values") {
        ranking.value_heterogeneities = run.report->ProblemCount();
      }
    }
    rankings.push_back(std::move(ranking));
  }
  std::sort(rankings.begin(), rankings.end(),
            [](const SourceRanking& a, const SourceRanking& b) {
              if (a.estimated_minutes != b.estimated_minutes) {
                return a.estimated_minutes < b.estimated_minutes;
              }
              if (a.TotalProblems() != b.TotalProblems()) {
                return a.TotalProblems() < b.TotalProblems();
              }
              return a.scenario < b.scenario;
            });
  return rankings;
}

std::string RenderRanking(const std::vector<SourceRanking>& rankings) {
  TextTable table;
  table.SetHeader({"Rank", "Candidate", "Estimated effort [min]",
                   "Mapping connections", "Structural conflicts",
                   "Value heterogeneities"});
  for (size_t i = 0; i < rankings.size(); ++i) {
    const SourceRanking& ranking = rankings[i];
    table.AddRow({std::to_string(i + 1), ranking.scenario,
                  FormatDouble(ranking.estimated_minutes, 6),
                  std::to_string(ranking.mapping_connections),
                  std::to_string(ranking.structural_conflicts),
                  std::to_string(ranking.value_heterogeneities)});
  }
  return table.ToString();
}

}  // namespace efes
