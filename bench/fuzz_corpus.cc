// Dedup calibration over the fuzz corpus: runs the 50 pinned corpus
// seeds (the same list as data/fuzz_corpus.txt) through the default
// engine, simulates the "measured" effort with the ground-truth model,
// and reports per-seed dedup estimates, injected-cluster recall, and
// the relative RMSE of the dedup category. Output is deterministic —
// two invocations byte-diff equal.

#include <cstdio>
#include <string>
#include <vector>

#include "efes/common/string_util.h"
#include "efes/common/text_table.h"
#include "efes/core/task.h"
#include "efes/dedup/dedup_module.h"
#include "efes/experiment/default_pipeline.h"
#include "efes/experiment/metrics.h"
#include "efes/scenario/fuzzer.h"
#include "efes/scenario/ground_truth.h"

namespace {

constexpr uint64_t kFirstSeed = 1;
constexpr uint64_t kLastSeed = 50;

double DedupMinutes(const efes::EstimationResult& result) {
  double minutes = 0.0;
  for (const efes::TaskEstimate& estimate : result.estimate.tasks) {
    if (estimate.task.category == efes::TaskCategory::kDeduplication) {
      minutes += estimate.minutes;
    }
  }
  return minutes;
}

}  // namespace

int main() {
  efes::EfesEngine engine = efes::MakeDefaultEngine();
  efes::TextTable table;
  table.SetHeader({"Seed", "Rows", "Injected", "Recall", "Efes dedup (min)",
                   "Measured dedup (min)", "Total (min)"});

  std::vector<double> measured_series;
  std::vector<double> estimated_series;
  double recall_sum = 0.0;
  size_t recall_seeds = 0;

  for (uint64_t seed = kFirstSeed; seed <= kLastSeed; ++seed) {
    auto fuzzed = efes::FuzzScenario(seed);
    if (!fuzzed.ok()) {
      std::fprintf(stderr, "seed %llu: %s\n",
                   static_cast<unsigned long long>(seed),
                   fuzzed.status().ToString().c_str());
      return 1;
    }
    auto result =
        engine.Run(fuzzed->scenario);
    if (!result.ok()) {
      std::fprintf(stderr, "seed %llu: %s\n",
                   static_cast<unsigned long long>(seed),
                   result.status().ToString().c_str());
      return 1;
    }
    auto measured = efes::SimulateMeasuredEffort(
        fuzzed->scenario, efes::ExpectedQuality::kHighQuality, seed);
    if (!measured.ok()) {
      std::fprintf(stderr, "seed %llu: %s\n",
                   static_cast<unsigned long long>(seed),
                   measured.status().ToString().c_str());
      return 1;
    }

    double recall = 1.0;
    for (const efes::ModuleRun& run : result->module_runs) {
      if (run.module != "dedup" || run.report == nullptr) continue;
      const auto* report = dynamic_cast<const efes::DedupComplexityReport*>(
          run.report.get());
      if (report == nullptr) continue;
      recall = efes::InjectedClusterRecall(*fuzzed, *report);
    }
    if (!fuzzed->injected_clusters.empty()) {
      recall_sum += recall;
      ++recall_seeds;
    }

    size_t rows = 0;
    for (const efes::SourceBinding& source : fuzzed->scenario.sources) {
      rows += source.database.TotalRowCount();
    }
    double estimated = DedupMinutes(*result);
    measured_series.push_back(measured->dedup_minutes);
    estimated_series.push_back(estimated);
    table.AddRow({std::to_string(seed), std::to_string(rows),
                  std::to_string(fuzzed->injected_clusters.size()),
                  efes::FormatDouble(recall, 2),
                  efes::FormatDouble(estimated, 6),
                  efes::FormatDouble(measured->dedup_minutes, 6),
                  efes::FormatDouble(result->estimate.TotalMinutes(), 6)});
  }

  std::printf(
      "Dedup calibration over the fuzz corpus (seeds %llu..%llu, the\n"
      "data/fuzz_corpus.txt manifest): EFES dedup estimates vs simulated\n"
      "measured dedup effort and injected-cluster recall.\n\n",
      static_cast<unsigned long long>(kFirstSeed),
      static_cast<unsigned long long>(kLastSeed));
  std::printf("%s", table.ToString().c_str());

  double mean_recall =
      recall_seeds == 0
          ? 1.0
          : recall_sum / static_cast<double>(recall_seeds);
  std::printf("\nrmse(Efes dedup)   = %s\n",
              efes::FormatDouble(
                  efes::RelativeRmse(measured_series, estimated_series), 2)
                  .c_str());
  std::printf("mean recall        = %s over %zu seeds with injection\n",
              efes::FormatDouble(mean_recall, 4).c_str(), recall_seeds);
  return 0;
}
