// End-to-end detector benchmarks, backing the Section 6.2 runtime claim:
// "EFES relies on simple SQL queries only for the analysis of the data
// and completes within seconds for databases with thousands of tuples."

#include <benchmark/benchmark.h>

#include "bench_json.h"
#include "efes/experiment/default_pipeline.h"
#include "efes/scenario/paper_example.h"

namespace efes {
namespace {

IntegrationScenario ScaledScenario(int64_t albums) {
  PaperExampleOptions options;
  options.album_count = static_cast<size_t>(albums);
  options.multi_artist_albums = static_cast<size_t>(albums / 4);
  options.orphan_artists = static_cast<size_t>(albums / 20);
  options.song_count = static_cast<size_t>(albums * 3 / 2);
  auto scenario = MakePaperExample(options);
  return std::move(*scenario);
}

void BM_FullEstimation(benchmark::State& state) {
  IntegrationScenario scenario = ScaledScenario(state.range(0));
  EfesEngine engine = MakeDefaultEngine();
  for (auto _ : state) {
    auto result = engine.Run(scenario);
    benchmark::DoNotOptimize(result->estimate.TotalMinutes());
  }
  int64_t tuples = 0;
  for (const SourceBinding& source : scenario.sources) {
    tuples += static_cast<int64_t>(source.database.TotalRowCount());
  }
  state.SetItemsProcessed(state.iterations() * tuples);
  state.counters["source_tuples"] = static_cast<double>(tuples);
}
BENCHMARK(BM_FullEstimation)->Arg(500)->Arg(2000)->Arg(8000)
    ->Unit(benchmark::kMillisecond);

void BM_ComplexityAssessmentOnly(benchmark::State& state) {
  IntegrationScenario scenario = ScaledScenario(state.range(0));
  EfesEngine engine = MakeDefaultEngine();
  for (auto _ : state) {
    auto reports = engine.AssessComplexity(scenario);
    benchmark::DoNotOptimize(reports->size());
  }
}
BENCHMARK(BM_ComplexityAssessmentOnly)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

/// One full estimation run; the emitted counters cover the engine,
/// profiling, and per-module task planning.
void JsonLineWorkload() {
  IntegrationScenario scenario = ScaledScenario(2000);
  EfesEngine engine = MakeDefaultEngine();
  auto result = engine.Run(scenario);
  benchmark::DoNotOptimize(result->estimate.TotalMinutes());
}

}  // namespace
}  // namespace efes

int main(int argc, char** argv) {
  return efes::bench::BenchMain(argc, argv, "perf_detectors",
                                efes::JsonLineWorkload);
}
