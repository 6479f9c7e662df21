// Quickstart: estimate the integration effort of the paper's running
// example (Figure 2 — a discographic source feeding a music-records
// target) without performing the integration.
//
// Walks the full EFES pipeline:
//   1. build an IntegrationScenario (schemas, instances, correspondences),
//   2. run the complexity assessment (phase 1) — the objective problems,
//   3. run the effort estimation (phase 2) — tasks priced by Table 9,
//   4. compare the low-effort and high-quality strategies.

#include <cstdio>

#include "efes/experiment/default_pipeline.h"
#include "efes/scenario/paper_example.h"

int main() {
  // 1. The scenario. MakePaperExample generates the Figure 2 schemas and
  //    a deterministic synthetic instance (503 multi-artist albums, 102
  //    artists without albums, millisecond song lengths).
  auto scenario = efes::MakePaperExample();
  if (!scenario.ok()) {
    std::fprintf(stderr, "failed to build scenario: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }
  std::printf("Scenario '%s': %zu source database(s), target '%s'\n\n",
              scenario->name.c_str(), scenario->sources.size(),
              scenario->target.name().c_str());

  // 2./3. The engine runs the three paper modules (mapping, structure,
  //       values) and prices the planned tasks.
  efes::EfesEngine engine = efes::MakeDefaultEngine();
  // Expected quality plus the execution settings (SQL + basic admin tool,
  // Section 6.1); the defaults are high quality and the paper's settings.
  efes::RunOptions options;
  options.quality = efes::ExpectedQuality::kHighQuality;

  auto high = engine.Run(*scenario, options);
  if (!high.ok()) {
    std::fprintf(stderr, "estimation failed: %s\n",
                 high.status().ToString().c_str());
    return 1;
  }
  std::printf("=== High-quality integration ===\n%s\n",
              high->ToText().c_str());

  // 4. The same scenario under a low-effort strategy (remove offending
  //    tuples instead of repairing them).
  efes::RunOptions low_effort = options;
  low_effort.quality = efes::ExpectedQuality::kLowEffort;
  auto low = engine.Run(*scenario, low_effort);
  if (!low.ok()) {
    std::fprintf(stderr, "estimation failed: %s\n",
                 low.status().ToString().c_str());
    return 1;
  }
  std::printf("=== Low-effort integration (tasks only) ===\n%s\n",
              low->estimate.ToText().c_str());

  std::printf(
      "Summary: high quality needs %.0f minutes, low effort %.0f "
      "minutes.\n",
      high->estimate.TotalMinutes(), low->estimate.TotalMinutes());

  // A second-generation mapping tool (Example 3.6) changes the picture:
  efes::RunOptions with_tool = options;
  with_tool.settings.mapping_tool_available = true;
  auto tooled = engine.Run(*scenario, with_tool);
  std::printf(
      "With an automatic mapping tool the high-quality estimate drops to "
      "%.0f minutes.\n",
      tooled->estimate.TotalMinutes());
  return 0;
}
