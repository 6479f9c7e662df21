// Tier-1 smoke over the checked-in fuzz corpus (data/fuzz_corpus.txt):
// every listed seed regenerates deterministically, passes scenario
// validation, and runs through the full default engine without
// degradation. The corpus is the same manifest `efes_fuzz corpus`
// consumes, so a seed that breaks here also breaks the CLI gate.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "efes/common/file_io.h"
#include "efes/common/string_util.h"
#include "efes/core/engine.h"
#include "efes/dedup/dedup_module.h"
#include "efes/experiment/default_pipeline.h"
#include "efes/scenario/fuzzer.h"

#ifndef EFES_SOURCE_DIR
#error "fuzz_smoke_test requires EFES_SOURCE_DIR (see tests/CMakeLists.txt)"
#endif

namespace efes {
namespace {

std::vector<uint64_t> LoadCorpusSeeds() {
  auto text =
      ReadFileToString(std::string(EFES_SOURCE_DIR) + "/data/fuzz_corpus.txt");
  EXPECT_TRUE(text.ok()) << text.status();
  std::vector<uint64_t> seeds;
  if (!text.ok()) return seeds;
  for (const std::string& raw_line : Split(*text, '\n')) {
    std::string_view line = Trim(raw_line);
    size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = Trim(line.substr(0, hash));
    if (line.empty()) continue;
    uint64_t seed = 0;
    for (char c : line) {
      EXPECT_TRUE(c >= '0' && c <= '9') << "bad corpus line: " << raw_line;
      seed = seed * 10 + static_cast<uint64_t>(c - '0');
    }
    seeds.push_back(seed);
  }
  return seeds;
}

TEST(FuzzSmokeTest, CorpusListsAtLeastFiftyDistinctSeeds) {
  std::vector<uint64_t> seeds = LoadCorpusSeeds();
  EXPECT_GE(seeds.size(), 50u);
  std::set<uint64_t> distinct(seeds.begin(), seeds.end());
  EXPECT_EQ(distinct.size(), seeds.size()) << "corpus repeats a seed";
}

TEST(FuzzSmokeTest, EveryCorpusSeedRunsCleanlyThroughTheDefaultEngine) {
  std::vector<uint64_t> seeds = LoadCorpusSeeds();
  ASSERT_FALSE(seeds.empty());
  EfesEngine engine = MakeDefaultEngine();
  size_t recovered = 0;
  size_t injected = 0;
  for (uint64_t seed : seeds) {
    auto fuzzed = FuzzScenario(seed);
    ASSERT_TRUE(fuzzed.ok()) << "seed " << seed << ": " << fuzzed.status();
    ASSERT_TRUE(fuzzed->scenario.Validate().ok()) << "seed " << seed;
    auto result = engine.Run(fuzzed->scenario);
    ASSERT_TRUE(result.ok()) << "seed " << seed << ": " << result.status();
    EXPECT_FALSE(result->degraded) << "seed " << seed;
    EXPECT_GT(result->estimate.TotalMinutes(), 0.0) << "seed " << seed;
    for (const ModuleRun& run : result->module_runs) {
      EXPECT_TRUE(run.ok()) << "seed " << seed << " module " << run.module;
      if (run.module != "dedup" || run.report == nullptr) continue;
      const auto* report =
          dynamic_cast<const DedupComplexityReport*>(run.report.get());
      ASSERT_NE(report, nullptr) << "seed " << seed;
      size_t total = fuzzed->injected_clusters.size();
      if (total == 0) continue;
      double recall = InjectedClusterRecall(*fuzzed, *report);
      injected += total;
      recovered += static_cast<size_t>(
          recall * static_cast<double>(total) + 0.5);
    }
  }
  ASSERT_GT(injected, 0u);
  EXPECT_GE(static_cast<double>(recovered) / static_cast<double>(injected),
            0.8);
}

}  // namespace
}  // namespace efes
