// Regenerates Table 8: "Value transformation tasks and their estimated
// effort" for the running example.
//
// The paper reports 15 minutes for converting 274,523 values (260,923
// distinct) — evidence that its practitioners priced the ms -> "m:ss"
// conversion as a *script*, although Table 9's literal function
// (0.25 * #dist-vals) would yield tens of thousands of minutes. Our value
// module resolves this by classifying conversions as systematic
// (rule-per-format script) vs irregular (per-distinct-value mapping);
// the length -> duration conversion is systematic, so Table 9's under-120
// branch applies and the estimate lands in the same order of magnitude as
// the paper's.

#include <cstdio>

#include "efes/common/string_util.h"
#include "efes/common/text_table.h"
#include "efes/core/effort_model.h"
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
  efes::ExecutionSettings settings;
  auto tasks = module.PlanTasks(**report,
                                efes::ExpectedQuality::kHighQuality,
                                settings);
  if (!tasks.ok()) {
    std::fprintf(stderr, "planner: %s\n", tasks.status().ToString().c_str());
    return 1;
  }

  const auto& value_report =
      static_cast<const efes::ValueComplexityReport&>(**report);
  efes::EffortModel model = efes::EffortModel::PaperDefault();
  std::printf(
      "Table 8: Value transformation tasks and their estimated effort\n\n");
  efes::TextTable table;
  table.SetHeader({"Task", "Parameters", "Effort"});
  double total = 0.0;
  for (size_t i = 0; i < tasks->size(); ++i) {
    const efes::Task& task = (*tasks)[i];
    double minutes = model.EstimateMinutes(task, settings);
    total += minutes;
    const efes::ValueHeterogeneity& h = value_report.heterogeneities()[i];
    std::string parameters = std::to_string(h.source_values) + " values, " +
                             std::to_string(h.source_distinct_values) +
                             " distinct values" +
                             (h.systematic ? " (systematic, " +
                                                 std::to_string(
                                                     h.source_pattern_count) +
                                                 " format rule(s))"
                                           : " (irregular)");
    table.AddRow({std::string(efes::TaskTypeToString(task.type)) + " (" +
                      task.subject + ")",
                  parameters, efes::FormatDouble(minutes, 8) + " mins"});
  }
  table.AddSeparator();
  table.AddRow({"Total", "", efes::FormatDouble(total, 8) + " mins"});
  std::printf("%s", table.ToString().c_str());
  return 0;
}
