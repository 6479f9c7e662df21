// Performance of the dedup module's blocking scan and of full fuzzed
// estimation runs, scaled over the fuzzer's entity count. The dedup
// detector reads full key columns (not samples) to block records, so
// this suite bounds the cost of that scan as sources grow. Blocking runs
// as two flat pool batches (normalize 4,096-row ranges into hash
// partitions, then group each partition), so one large relation uses
// every pool thread. BM_DedupAssessment calls the module alone, with a context
// that has no run memo, so it also profiles every column it reads;
// inside an engine run (BM_FuzzedFullEstimation) those profiles come
// from the value module's batch.

#include <benchmark/benchmark.h>

#include "efes/dedup/dedup_module.h"
#include "efes/experiment/default_pipeline.h"
#include "efes/scenario/fuzzer.h"

namespace efes {
namespace {

FuzzedScenario ScaledFuzz(int64_t entities, uint64_t seed = 9) {
  FuzzOptions options;
  options.min_entities = static_cast<size_t>(entities);
  options.max_entities = static_cast<size_t>(entities);
  options.min_sources = 3;
  options.max_sources = 3;
  auto fuzzed = FuzzScenario(seed, options);
  return std::move(*fuzzed);
}

void BM_DedupAssessment(benchmark::State& state) {
  FuzzedScenario fuzzed = ScaledFuzz(state.range(0));
  DedupModule module;
  for (auto _ : state) {
    auto report = module.AssessComplexity(fuzzed.scenario, RunContext{});
    benchmark::DoNotOptimize(report->get());
  }
  int64_t tuples = 0;
  for (const SourceBinding& source : fuzzed.scenario.sources) {
    tuples += static_cast<int64_t>(source.database.TotalRowCount());
  }
  state.SetItemsProcessed(state.iterations() * tuples);
  state.counters["source_tuples"] = static_cast<double>(tuples);
}
BENCHMARK(BM_DedupAssessment)->Arg(100)->Arg(400)->Arg(1600)
    ->Unit(benchmark::kMillisecond);

void BM_FuzzedFullEstimation(benchmark::State& state) {
  FuzzedScenario fuzzed = ScaledFuzz(state.range(0));
  EfesEngine engine = MakeDefaultEngine();
  for (auto _ : state) {
    auto result = engine.Run(fuzzed.scenario);
    benchmark::DoNotOptimize(result->estimate.TotalMinutes());
  }
}
BENCHMARK(BM_FuzzedFullEstimation)->Arg(100)->Arg(400)
    ->Unit(benchmark::kMillisecond);

void BM_FuzzScenarioGeneration(benchmark::State& state) {
  uint64_t seed = 1;
  for (auto _ : state) {
    FuzzedScenario fuzzed = ScaledFuzz(state.range(0), seed++);
    benchmark::DoNotOptimize(fuzzed.injected_clusters.size());
  }
}
BENCHMARK(BM_FuzzScenarioGeneration)->Arg(400)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace efes

BENCHMARK_MAIN();
