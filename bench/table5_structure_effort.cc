// Regenerates Table 5: "High-quality structure repair tasks and their
// estimated effort" for the running example — Add tuples (102, 5 mins),
// Add missing values (102, 204 mins), Merge values (503, 15 mins),
// total 224 minutes.

#include <cstdio>

#include "efes/common/string_util.h"
#include "efes/common/text_table.h"
#include "efes/core/effort_model.h"
#include "efes/scenario/paper_example.h"
#include "efes/structure/structure_module.h"

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
  efes::ExecutionSettings settings;
  auto tasks = module.PlanTasks(**report,
                                efes::ExpectedQuality::kHighQuality,
                                settings);
  if (!tasks.ok()) {
    std::fprintf(stderr, "planner: %s\n", tasks.status().ToString().c_str());
    return 1;
  }

  efes::EffortModel model = efes::EffortModel::PaperDefault();
  std::printf(
      "Table 5: High-quality structure repair tasks and their estimated\n"
      "effort using the effort calculation functions from Table 9\n\n");
  efes::TextTable table;
  table.SetHeader({"Task", "Repetitions", "Effort"});
  double total = 0.0;
  for (const efes::Task& task : *tasks) {
    double minutes = model.EstimateMinutes(task, settings);
    total += minutes;
    table.AddRow(
        {std::string(efes::TaskTypeToString(task.type)) + " (" +
             task.subject + ")",
         efes::FormatDouble(task.Param(efes::task_params::kRepetitions), 8),
         efes::FormatDouble(minutes, 8) + " mins"});
  }
  table.AddSeparator();
  table.AddRow({"Total", "", efes::FormatDouble(total, 8) + " mins"});
  std::printf("%s", table.ToString().c_str());
  return 0;
}
