// Performance benchmarks for the Section 5.1 statistics through the
// budgeted profiler (profiling/profiler.h), for the scenario
// load that turns CSV bytes into the typed columns they profile
// (BM_LoadScenario), for the value and dedup assessments that
// profile those columns in one batch each (BM_AssessValues,
// BM_AssessDedup), for the two halves of `efes profile`: reading
// row blocks (BM_CsvBlocks) and absorbing text cells into sketches
// (BM_SketchAbsorbText), and for the streaming-scale sweep of
// EXPERIMENTS.md (BM_SketchStream: 8 column streams of 1M and 10M rows,
// absorbed chunk by chunk into budgeted sketches, so the input never
// exists whole in memory).

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "efes/common/csv.h"
#include "efes/common/file_io.h"
#include "efes/common/parallel.h"
#include "efes/common/random.h"
#include "efes/common/string_util.h"
#include "efes/dedup/dedup_module.h"
#include "efes/profiling/profiler.h"
#include "efes/profiling/sketch.h"
#include "efes/profiling/statistics.h"
#include "efes/scenario/fuzzer.h"
#include "efes/scenario/scenario_io.h"
#include "efes/values/value_module.h"

namespace efes {
namespace {

std::vector<Value> RandomTextColumn(size_t n, uint64_t seed = 99) {
  Random rng(seed);
  std::vector<Value> column;
  column.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.05)) {
      column.push_back(Value::Null());
    } else {
      column.push_back(Value::Text(rng.Word(3, 12) + " " +
                                   std::to_string(rng.UniformUint64(1000))));
    }
  }
  return column;
}

std::vector<Value> RandomNumericColumn(size_t n, uint64_t seed = 77) {
  Random rng(seed);
  std::vector<Value> column;
  column.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    column.push_back(Value::Integer(rng.UniformInt(0, 1000000)));
  }
  return column;
}

/// Sketch-mode options with a budget an exact whole-column profile of
/// the text columns could not satisfy: 1 MiB per sketch versus tens of
/// MiB of distinct values at BM_SketchStream's row counts.
ProfileOptions SketchBudgetOptions() {
  ProfileOptions options;
  options.max_memory_bytes = 1 << 20;
  options.mode = ApproximationMode::kSketch;
  return options;
}

void BM_TextStatistics(benchmark::State& state) {
  std::vector<Value> column =
      RandomTextColumn(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ProfileColumn(column, DataType::kText));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TextStatistics)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_NumericStatistics(benchmark::State& state) {
  std::vector<Value> column =
      RandomNumericColumn(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ProfileColumn(column, DataType::kInteger));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NumericStatistics)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_TextStatisticsSketch(benchmark::State& state) {
  std::vector<Value> column =
      RandomTextColumn(static_cast<size_t>(state.range(0)));
  const ProfileOptions options = SketchBudgetOptions();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ProfileColumn(column, DataType::kText, options));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TextStatisticsSketch)->Arg(50000)->Arg(200000);

/// The columns BM_SketchFinalize finalizes.
enum class FinalizeColumn { kDistinctText, kDistinctInteger, kHundredTexts };

/// StatisticsSketch::Finalize alone. Every benchmark thread absorbs its
/// own column once, before the timed loop, so ->Threads(4) shows how
/// four concurrent finalizations slow each other down.
void BM_SketchFinalize(benchmark::State& state, FinalizeColumn shape) {
  const size_t rows = static_cast<size_t>(state.range(0));
  std::vector<Value> column;
  column.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    switch (shape) {
      case FinalizeColumn::kDistinctText:
        column.push_back(Value::Text("value-" + std::to_string(i)));
        break;
      case FinalizeColumn::kDistinctInteger:
        column.push_back(Value::Integer(static_cast<int64_t>(i)));
        break;
      case FinalizeColumn::kHundredTexts:
        column.push_back(Value::Text("value-" + std::to_string(i % 100)));
        break;
    }
  }
  const DataType type = shape == FinalizeColumn::kDistinctInteger
                            ? DataType::kInteger
                            : DataType::kText;
  StatisticsSketch sketch(type, ProfileOptions{});
  if (Status absorbed = sketch.AbsorbRange(column, 0, rows); !absorbed.ok()) {
    state.SkipWithError(absorbed.ToString().c_str());
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.Finalize());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_SketchFinalize, distinct_text,
                  FinalizeColumn::kDistinctText)
    ->Arg(10000)->Arg(200000)->Threads(1)->Threads(4)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SketchFinalize, distinct_integer,
                  FinalizeColumn::kDistinctInteger)
    ->Arg(10000)->Arg(200000)->Threads(1)->Threads(4)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SketchFinalize, hundred_texts,
                  FinalizeColumn::kHundredTexts)
    ->Arg(10000)->Arg(200000)->Threads(1)->Threads(4)
    ->Unit(benchmark::kMicrosecond);

/// How a benchmark hands cells over: as views, or as one string or
/// Value per cell.
enum class CellVia { kViews, kStrings };

/// A 200k-row, 8-column CSV in the shape of the profile_stream workload
/// (a unique id, names, small integers, reals and words), written once
/// to a temporary file that is removed at exit.
const std::string& SavedTallCsv() {
  struct TempCsv {
    TempCsv() {
      path = (std::filesystem::temp_directory_path() /
              ("efes_perf_tall_" + std::to_string(::getpid()) + ".csv"))
                 .string();
      Random rng(17);
      std::string text = "uid,id,name,count,word,small,ratio,label\n";
      for (size_t row = 1; row <= 200000; ++row) {
        text += std::to_string(row) + "," +
                std::to_string(rng.UniformUint64(150000)) + "," +
                rng.Word(3, 8) + " " + rng.Word(4, 9) + "," +
                std::to_string(rng.UniformUint64(40)) + "," +
                rng.Word(4, 7) + "," +
                (rng.Bernoulli(0.1) ? ""
                                    : std::to_string(rng.UniformUint64(12))) +
                "," + std::to_string(rng.UniformUint64(20)) + ".5," +
                rng.Word(5, 9) + "\n";
      }
      Status written = WriteFileAtomic(path, text);
      if (!written.ok()) {
        std::fprintf(stderr, "perf_profiling: cannot write CSV: %s\n",
                     written.ToString().c_str());
        std::abort();
      }
    }
    TempCsv(const TempCsv&) = delete;
    TempCsv& operator=(const TempCsv&) = delete;
    ~TempCsv() {
      std::error_code ignored;
      std::filesystem::remove(path, ignored);
    }
    std::string path;
  };
  static const TempCsv csv;
  return csv.path;
}

/// Reads SavedTallCsv() in 65536-row blocks: flat (NextRows) or one
/// string per cell (NextChunk).
void BM_CsvBlocks(benchmark::State& state, CellVia via) {
  const std::string& path = SavedTallCsv();
  for (auto _ : state) {
    auto reader = ChunkedCsvReader::Open(path, CsvReadOptions{}, 65536);
    if (!reader.ok()) {
      state.SkipWithError(reader.status().ToString().c_str());
      break;
    }
    size_t rows = 0;
    while (!reader->done()) {
      if (via == CellVia::kViews) {
        auto block = reader->NextRows();
        if (!block.ok()) break;
        rows += block->size();
        benchmark::DoNotOptimize(block->cell(0, 0));
      } else {
        auto chunk = reader->NextChunk();
        if (!chunk.ok()) break;
        rows += chunk->size();
        benchmark::DoNotOptimize(chunk->data());
      }
    }
    if (rows != 200000) {
      state.SkipWithError("short read");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * 200000);
}
BENCHMARK_CAPTURE(BM_CsvBlocks, rows, CellVia::kViews)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CsvBlocks, chunk, CellVia::kStrings)
    ->Unit(benchmark::kMillisecond);

/// The cell columns of BM_SketchAbsorbText and BM_ParseNumber: 60
/// words, all-distinct texts, 40 small integers ("0".."39") and 20
/// halves ("0.5".."19.5"), 500k cells each, drawn at random.
enum class CellShape { kWords, kDistinct, kSmallIntegers, kHalves };

const std::vector<std::string>& ShapeCells(CellShape shape) {
  constexpr size_t kCells = 500000;
  static const std::vector<std::vector<std::string>> columns = [] {
    std::vector<std::vector<std::string>> made(4);
    Random rng(5);
    std::vector<std::string> words;
    for (int i = 0; i < 60; ++i) words.push_back(rng.Word(4, 10));
    for (size_t i = 0; i < kCells; ++i) {
      made[0].push_back(words[rng.UniformUint64(words.size())]);
      made[1].push_back("value-" + std::to_string(i));
      made[2].push_back(std::to_string(rng.UniformUint64(40)));
      made[3].push_back(std::to_string(rng.UniformUint64(20)) + ".5");
    }
    return made;
  }();
  return columns[static_cast<size_t>(shape)];
}

/// Which sketch BM_SketchAbsorbText absorbs into: a typed text sketch,
/// which parses no cell, or an inferring one, which reads every cell as
/// a number until one is not.
enum class SketchKind { kText, kInferring };

/// Absorbs a 500k-cell column into a fresh sketch: through AbsorbText
/// (views) or Absorb(Value::Text) (a Value per cell). A nonzero
/// argument sets profile_stream's 1 MiB sketch budget. The same cells
/// into a text and an inferring sketch differ only by the number
/// parsing.
void BM_SketchAbsorbText(benchmark::State& state, CellShape shape,
                         SketchKind kind, CellVia via) {
  const std::vector<std::string>& cells = ShapeCells(shape);
  ProfileOptions options;
  if (state.range(0) != 0) {
    options.mode = ApproximationMode::kSketch;
    options.max_memory_bytes = 1 << 20;
  }
  for (auto _ : state) {
    StatisticsSketch sketch = kind == SketchKind::kInferring
                                  ? StatisticsSketch::Inferring(options)
                                  : StatisticsSketch(DataType::kText, options);
    Status status;
    for (const std::string& cell : cells) {
      status = via == CellVia::kViews ? sketch.AbsorbText(cell)
                                      : sketch.Absorb(Value::Text(cell));
      if (!status.ok()) break;
    }
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(sketch.tracked_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(cells.size()));
}
BENCHMARK_CAPTURE(BM_SketchAbsorbText, words_view, CellShape::kWords,
                  SketchKind::kText, CellVia::kViews)
    ->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SketchAbsorbText, words_value, CellShape::kWords,
                  SketchKind::kText, CellVia::kStrings)
    ->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SketchAbsorbText, distinct_view, CellShape::kDistinct,
                  SketchKind::kText, CellVia::kViews)
    ->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SketchAbsorbText, distinct_value, CellShape::kDistinct,
                  SketchKind::kText, CellVia::kStrings)
    ->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SketchAbsorbText, small_int_text,
                  CellShape::kSmallIntegers, SketchKind::kText,
                  CellVia::kViews)
    ->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SketchAbsorbText, small_int_infer,
                  CellShape::kSmallIntegers, SketchKind::kInferring,
                  CellVia::kViews)
    ->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SketchAbsorbText, half_text, CellShape::kHalves,
                  SketchKind::kText, CellVia::kViews)
    ->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SketchAbsorbText, half_infer, CellShape::kHalves,
                  SketchKind::kInferring, CellVia::kViews)
    ->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// How BM_ParseNumber reads a cell: ReadNumber's one scan, or
/// ParseDouble then ParseInt64, the two calls a sketch made per cell
/// before ReadNumber.
enum class NumberCall { kReadNumber, kTwoParses };

/// Reads every cell of a 500k-cell column as a number, with nothing
/// else around it.
void BM_ParseNumber(benchmark::State& state, CellShape shape,
                    NumberCall call) {
  const std::vector<std::string>& cells = ShapeCells(shape);
  for (auto _ : state) {
    size_t integers = 0;
    double sum = 0.0;
    for (const std::string& cell : cells) {
      if (call == NumberCall::kReadNumber) {
        const NumberReading reading = ReadNumber(cell);
        integers += reading.integer ? 1 : 0;
        sum += reading.real.value_or(0.0);
      } else {
        const std::optional<double> real = ParseDouble(cell);
        integers += ParseInt64(cell).has_value() ? 1 : 0;
        sum += real.value_or(0.0);
      }
    }
    benchmark::DoNotOptimize(integers);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(cells.size()));
}
BENCHMARK_CAPTURE(BM_ParseNumber, small_int_read, CellShape::kSmallIntegers,
                  NumberCall::kReadNumber)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ParseNumber, small_int_two_parses,
                  CellShape::kSmallIntegers, NumberCall::kTwoParses)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ParseNumber, half_read, CellShape::kHalves,
                  NumberCall::kReadNumber)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ParseNumber, half_two_parses, CellShape::kHalves,
                  NumberCall::kTwoParses)
    ->Unit(benchmark::kMillisecond);

void BM_OverallFit(benchmark::State& state) {
  AttributeStatistics a =
      ProfileColumn(RandomTextColumn(5000), DataType::kText).value();
  AttributeStatistics b =
      ProfileColumn(RandomTextColumn(5000, 123), DataType::kText).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(OverallFit(a, b));
  }
}
BENCHMARK(BM_OverallFit);

/// A 15000-entity, 3-source fuzz scenario with target data, saved once
/// to a temporary directory that is removed at exit.
const std::string& SavedLoadScenario() {
  struct TempScenario {
    TempScenario() {
      dir = (std::filesystem::temp_directory_path() /
             ("efes_perf_load_" + std::to_string(::getpid())))
                .string();
      FuzzOptions options;
      options.min_sources = options.max_sources = 3;
      options.min_entities = options.max_entities = 15000;
      options.target_data_rate = 1.0;
      auto fuzzed = FuzzScenario(1, options);
      Status saved = fuzzed.ok() ? SaveScenario(fuzzed->scenario, dir)
                                 : fuzzed.status();
      if (!saved.ok()) {
        std::fprintf(stderr, "perf_profiling: cannot save scenario: %s\n",
                     saved.ToString().c_str());
        std::abort();
      }
    }
    TempScenario(const TempScenario&) = delete;
    TempScenario& operator=(const TempScenario&) = delete;
    ~TempScenario() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
    std::string dir;
  };
  static const TempScenario scenario;
  return scenario.dir;
}

/// CSV bytes to typed tables: the per-file scan and cast fan-out of
/// LoadScenario, at the thread count given as the argument.
void BM_LoadScenario(benchmark::State& state) {
  const std::string& dir = SavedLoadScenario();
  const size_t configured = ConfiguredThreadCount();
  SetThreadCountOverride(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto loaded = LoadScenario(dir);
    if (!loaded.ok()) {
      state.SkipWithError(loaded.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(loaded);
  }
  SetThreadCountOverride(configured);
}
BENCHMARK(BM_LoadScenario)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

/// SavedLoadScenario(), loaded once.
const IntegrationScenario& LoadedScenario() {
  static const IntegrationScenario scenario = [] {
    auto loaded = LoadScenario(SavedLoadScenario());
    if (!loaded.ok()) {
      std::fprintf(stderr, "perf_profiling: cannot load scenario: %s\n",
                   loaded.status().ToString().c_str());
      std::abort();
    }
    return *std::move(loaded);
  }();
  return scenario;
}

/// One module's uncached assessment of LoadedScenario() at the thread
/// count given as the argument: its profiling batch plus detection.
void AssessModule(benchmark::State& state, const EstimationModule& module) {
  const IntegrationScenario& scenario = LoadedScenario();
  const size_t configured = ConfiguredThreadCount();
  SetThreadCountOverride(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto report = module.AssessComplexity(scenario, RunContext{});
    if (!report.ok()) {
      state.SkipWithError(report.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(report);
  }
  SetThreadCountOverride(configured);
}

void BM_AssessValues(benchmark::State& state) {
  AssessModule(state, ValueModule());
}
BENCHMARK(BM_AssessValues)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_AssessDedup(benchmark::State& state) {
  AssessModule(state, DedupModule());
}
BENCHMARK(BM_AssessDedup)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_GeneralizeToPattern(benchmark::State& state) {
  std::string text = "Sweet Home Alabama 1974 (4:43)";
  for (auto _ : state) {
    benchmark::DoNotOptimize(GeneralizeToPattern(text));
  }
}
BENCHMARK(BM_GeneralizeToPattern);

void BM_ProfileColumns(benchmark::State& state) {
  std::vector<std::vector<Value>> columns;
  for (size_t i = 0; i < 32; ++i) {
    columns.push_back(i % 2 == 0 ? RandomTextColumn(5000)
                                 : RandomNumericColumn(5000));
  }
  std::vector<ProfileRequest> requests;
  for (size_t i = 0; i < columns.size(); ++i) {
    requests.push_back(ProfileRequest{
        &columns[i], i % 2 == 0 ? DataType::kText : DataType::kInteger});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ProfileColumns(requests));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(columns.size()));
}
BENCHMARK(BM_ProfileColumns);

/// The streaming-scale sweep's chunk size and stream count.
constexpr size_t kStreamChunkRows = 65536;
constexpr size_t kStreams = 8;

/// Regenerates chunk `chunk_index` of stream `stream` into `out`: text
/// for even streams, integers for odd ones. The seed depends only on
/// (stream, chunk_index), so a stream's content is the same however its
/// chunks are cut or scheduled.
void GenerateChunk(size_t stream, size_t chunk_index, size_t count,
                   std::vector<Value>* out) {
  out->clear();
  Random rng(0x9e3779b97f4a7c15ull * (stream + 1) + chunk_index);
  if (stream % 2 == 0) {
    for (size_t i = 0; i < count; ++i) {
      if (rng.Bernoulli(0.05)) {
        out->push_back(Value::Null());
      } else {
        out->push_back(Value::Text(
            rng.Word(3, 12) + " " + std::to_string(rng.UniformUint64(1000))));
      }
    }
  } else {
    for (size_t i = 0; i < count; ++i) {
      out->push_back(Value::Integer(rng.UniformInt(0, 1000000)));
    }
  }
}

/// The streaming-scale sweep: 8 streams of as many rows as the argument,
/// one sketch each under SketchBudgetOptions(), one pool task per
/// stream. Every chunk is generated, absorbed and discarded, so memory
/// stays one chunk plus one capped sketch per stream at any row count,
/// where an exact profile of the materialized columns could not stay
/// within the budget.
void BM_SketchStream(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const ProfileOptions options = SketchBudgetOptions();
  for (auto _ : state) {
    std::vector<AttributeStatistics> finalized(kStreams);
    Status streamed = ParallelFor(kStreams, [&](size_t stream) -> Status {
      StatisticsSketch sketch(
          stream % 2 == 0 ? DataType::kText : DataType::kInteger, options);
      std::vector<Value> chunk;
      chunk.reserve(kStreamChunkRows);
      for (size_t absorbed = 0, index = 0; absorbed < rows; ++index) {
        GenerateChunk(stream, index,
                      std::min(kStreamChunkRows, rows - absorbed), &chunk);
        EFES_RETURN_IF_ERROR(sketch.AbsorbRange(chunk, 0, chunk.size()));
        absorbed += chunk.size();
      }
      finalized[stream] = sketch.Finalize();
      return Status::OK();
    });
    if (!streamed.ok()) {
      state.SkipWithError(streamed.ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(finalized);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kStreams * rows));
}
BENCHMARK(BM_SketchStream)->Arg(1000000)->Arg(10000000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace efes

BENCHMARK_MAIN();
