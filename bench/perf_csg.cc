// Performance microbenchmarks for the CSG machinery: cardinality algebra,
// relational-to-CSG conversion (paper-example and fuzzed sources),
// source-path search, and path violation counting.

#include <benchmark/benchmark.h>

#include "bench_json.h"
#include "efes/common/random.h"
#include "efes/csg/builder.h"
#include "efes/csg/path_search.h"
#include "efes/scenario/fuzzer.h"
#include "efes/scenario/paper_example.h"

namespace efes {
namespace {

void BM_CardinalityCompose(benchmark::State& state) {
  Cardinality a = Cardinality::Between(1, 3);
  Cardinality b = Cardinality::AtLeast(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Cardinality::Compose(a, b));
  }
}
BENCHMARK(BM_CardinalityCompose);

void BM_CardinalitySubsetCheck(benchmark::State& state) {
  Cardinality a = Cardinality::Between(1, 3);
  Cardinality b = Cardinality::Any();
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.IsSubsetOf(b));
  }
}
BENCHMARK(BM_CardinalitySubsetCheck);

/// Builds the paper-example source database scaled by `albums`.
Database ScaledSource(int64_t albums) {
  PaperExampleOptions options;
  options.album_count = static_cast<size_t>(albums);
  options.multi_artist_albums = static_cast<size_t>(albums / 4);
  options.orphan_artists = static_cast<size_t>(albums / 20);
  options.song_count = static_cast<size_t>(albums * 3 / 2);
  auto scenario = MakePaperExample(options);
  return std::move(scenario->sources[0].database);
}

void BM_BuildCsg(benchmark::State& state) {
  Database db = ScaledSource(state.range(0));
  for (auto _ : state) {
    Csg csg = BuildCsg(db);
    benchmark::DoNotOptimize(csg.graph.nodes().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(db.TotalRowCount()));
}
BENCHMARK(BM_BuildCsg)->Arg(500)->Arg(2000)->Arg(8000);

/// One source of a fuzzed scenario shaped like the end-to-end
/// benchmark's cold estimate: three sources over `entities` root
/// entities, four extra attributes, two detail relations.
Database FuzzSource(int64_t entities) {
  FuzzOptions options;
  options.min_sources = options.max_sources = 3;
  options.min_entities = options.max_entities = static_cast<size_t>(entities);
  options.min_extra_attributes = options.max_extra_attributes = 4;
  options.max_detail_relations = 2;
  options.target_data_rate = 1.0;
  options.sloppy_number_rate = 1.0;
  auto fuzzed = FuzzScenario(1, options);
  return std::move(fuzzed->scenario.sources[0].database);
}

void BM_BuildCsgFuzzSource(benchmark::State& state) {
  Database db = FuzzSource(state.range(0));
  for (auto _ : state) {
    Csg csg = BuildCsg(db);
    benchmark::DoNotOptimize(csg.instance.LinkCount(0));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(db.TotalRowCount()));
}
BENCHMARK(BM_BuildCsgFuzzSource)->Arg(15000);

void BM_PathSearch(benchmark::State& state) {
  Database db = ScaledSource(1000);
  Csg csg = BuildCsg(db);
  NodeId start = *csg.graph.FindTableNode("albums");
  NodeId end = *csg.graph.FindAttributeNode("artist_credits", "artist");
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindBestPath(csg.graph, start, end));
  }
}
BENCHMARK(BM_PathSearch);

void BM_PathViolationCounting(benchmark::State& state) {
  Database db = ScaledSource(state.range(0));
  Csg csg = BuildCsg(db);
  NodeId start = *csg.graph.FindTableNode("albums");
  NodeId end = *csg.graph.FindAttributeNode("artist_credits", "artist");
  auto best = FindBestPath(csg.graph, start, end);
  for (auto _ : state) {
    benchmark::DoNotOptimize(csg.instance.CountPathViolations(
        csg.graph, best->path, Cardinality::Exactly(1)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PathViolationCounting)->Arg(500)->Arg(2000)->Arg(8000);

/// CSG build + path search + violation counting. BuildCsg records its
/// own `csg.build.ms` histogram; the workload adds size and count gauges.
void JsonLineWorkload() {
  Database db = ScaledSource(2000);
  MetricsRegistry& metrics = MetricsRegistry::Global();
  Csg csg = BuildCsg(db);
  metrics.GetGauge("csg.build.nodes")
      .Set(static_cast<double>(csg.graph.nodes().size()));
  NodeId start = *csg.graph.FindTableNode("albums");
  NodeId end = *csg.graph.FindAttributeNode("artist_credits", "artist");
  auto best = FindBestPath(csg.graph, start, end);
  size_t violations = csg.instance.CountPathViolations(
      csg.graph, best->path, Cardinality::Exactly(1));
  metrics.GetCounter("csg.path.violations").Increment(violations);
}

}  // namespace
}  // namespace efes

int main(int argc, char** argv) {
  return efes::bench::BenchMain(argc, argv, "perf_csg",
                                efes::JsonLineWorkload);
}
