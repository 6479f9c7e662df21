// efesbench_probe — the in-process half of the EFES benchmark
// (efesbench/README.md). The driver script (efesbench/run.py) runs the
// shipped binaries for the timed operations and calls this tool for
// everything it needs from inside the library:
//
//   efesbench_probe scenario  --seed=S --entities=N --out=<dir>
//   efesbench_probe reference --seed=S --entities=N --dir=<dir> --out=<file>
//                             [--threads=N]
//   efesbench_probe edit      --dir=<dir> --op=I
//   efesbench_probe replay    --dir=<dir> --ops=N --out=<dir>
//                             [--shard=J --shards=K]
//   efesbench_probe cache-check --cache-dir=<dir>
//   efesbench_probe tall-csv  --seed=S --rows=N --out=<file>
//   efesbench_probe calibrate
//   efesbench_probe trace     --workload=<name> [--dir=<dir>]
//                             [--cache-dir=<dir>] [--csv=<file>]
//                             [--reps=N] [--op=I] --trace-out=<file>
//
// Each subcommand prints one JSON object on stdout and exits 0, or
// prints an error on stderr and exits 1 (2 for usage errors).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "efes/cache/fingerprint.h"
#include "efes/cache/profile_cache.h"
#include "efes/common/csv.h"
#include "efes/common/file_io.h"
#include "efes/common/flags.h"
#include "efes/common/json_writer.h"
#include "efes/common/metrics.h"
#include "efes/common/parallel.h"
#include "efes/common/string_util.h"
#include "efes/csg/builder.h"
#include "efes/dedup/dedup_module.h"
#include "efes/experiment/default_pipeline.h"
#include "efes/experiment/json_export.h"
#include "efes/mapping/mapping_module.h"
#include "efes/profiling/profiler.h"
#include "efes/scenario/scenario_io.h"
#include "efes/structure/conflict_detector.h"
#include "efes/structure/structure_module.h"
#include "efes/values/value_module.h"
#include "efesbench/probe/inputs.h"
#include "efesbench/probe/spans.h"

namespace efesbench {
namespace {

/// Thread count of every timed operation (the children run --threads=4).
constexpr size_t kThreads = 4;

/// Quality of the reestimate_warm op `op`: high and low alternate.
efes::ExpectedQuality QualityOfOp(uint64_t op) {
  return op % 2 == 0 ? efes::ExpectedQuality::kHighQuality
                     : efes::ExpectedQuality::kLowEffort;
}

/// The profile_stream policy: --approx=auto --max-memory=1048576.
efes::ProfileOptions StreamProfileOptions() {
  efes::ProfileOptions options;
  options.mode = efes::ApproximationMode::kAuto;
  options.max_memory_bytes = 1048576;
  return options;
}

efes::Result<uint64_t> ParseU64(const std::string& name,
                                const std::string& text) {
  std::optional<int64_t> value = efes::ParseInt64(text);
  if (!value.has_value() || *value < 0) {
    return efes::Status::InvalidArgument("--" + name +
                                         " needs a non-negative integer");
  }
  return static_cast<uint64_t>(*value);
}

/// Flags shared by the subcommands; each subcommand checks the ones it
/// needs.
struct Args {
  std::string seed = "0";
  std::string entities = "0";
  std::string rows = "0";
  std::string op = "0";
  std::string ops = "0";
  std::string reps = "1";
  std::string shard = "0";
  std::string shards = "1";
  std::string threads = "4";
  std::string dir;
  std::string out;
  std::string cache_dir;
  std::string csv;
  std::string workload;
  std::string trace_out;
};

efes::Status ParseArgs(std::vector<std::string> argv, Args* args) {
  efes::FlagSet flags;
  flags.AddString("seed", "<n>", "input seed", &args->seed);
  flags.AddString("entities", "<n>", "fuzz entities", &args->entities);
  flags.AddString("rows", "<n>", "CSV data rows", &args->rows);
  flags.AddString("op", "<n>", "edit-script op index", &args->op);
  flags.AddString("ops", "<n>", "ops to replay", &args->ops);
  flags.AddString("reps", "<n>", "traced ops", &args->reps);
  flags.AddString("shard", "<n>", "replay the ops with op % shards == shard",
                  &args->shard);
  flags.AddString("shards", "<n>", "replay shards", &args->shards);
  flags.AddString("threads", "<n>", "worker threads", &args->threads);
  flags.AddString("dir", "<dir>", "scenario directory", &args->dir);
  flags.AddString("out", "<path>", "output file or directory", &args->out);
  flags.AddString("cache-dir", "<dir>", "profile cache directory",
                  &args->cache_dir);
  flags.AddString("csv", "<file>", "profile_stream CSV", &args->csv);
  flags.AddString("workload", "<name>", "workload to trace",
                  &args->workload);
  flags.AddString("trace-out", "<file>", "Chrome trace output",
                  &args->trace_out);
  EFES_RETURN_IF_ERROR(flags.Parse(&argv));
  if (!argv.empty()) {
    return efes::Status::InvalidArgument("unexpected argument: " +
                                         argv.front());
  }
  return efes::Status::OK();
}

/// The default pipeline's modules, in the engine's registration order.
std::vector<std::unique_ptr<efes::EstimationModule>> PipelineModules() {
  std::vector<std::unique_ptr<efes::EstimationModule>> modules;
  modules.push_back(std::make_unique<efes::MappingModule>());
  modules.push_back(std::make_unique<efes::StructureModule>());
  modules.push_back(std::make_unique<efes::ValueModule>());
  modules.push_back(std::make_unique<efes::DedupModule>());
  return modules;
}

/// The CLI's `--format=json` rendering of an estimate.
std::string EstimateJson(const efes::EstimationResult& result) {
  return efes::EstimationResultToJson(result, nullptr, nullptr) + "\n";
}

/// Runs the whole pipeline without a cache and renders it as the CLI does.
efes::Result<std::string> UncachedEstimate(
    const efes::IntegrationScenario& scenario,
    efes::ExpectedQuality quality, efes::EstimationResult* result_out) {
  efes::ScopedProfileCache no_cache(nullptr);
  efes::RunOptions options;
  options.quality = quality;
  EFES_ASSIGN_OR_RETURN(efes::EstimationResult result,
                        efes::MakeDefaultEngine().Run(scenario, options));
  std::string json = EstimateJson(result);
  if (result_out != nullptr) *result_out = std::move(result);
  return json;
}

uint64_t CounterValue(std::string_view name) {
  return efes::MetricsRegistry::Global().Snapshot().CounterValue(name);
}

void PrintJson(efes::JsonWriter& json) {
  json.EndObject();
  std::printf("%s\n", json.ToString().c_str());
}

// --- input subcommands ----------------------------------------------------

efes::Status RunScenario(const Args& args) {
  EFES_ASSIGN_OR_RETURN(uint64_t seed, ParseU64("seed", args.seed));
  EFES_ASSIGN_OR_RETURN(uint64_t entities,
                        ParseU64("entities", args.entities));
  EFES_ASSIGN_OR_RETURN(efes::FuzzedScenario fuzzed,
                        BenchScenario(seed, entities));
  EFES_RETURN_IF_ERROR(efes::SaveScenario(fuzzed.scenario, args.out));
  InputSize size = SourceSize(fuzzed.scenario);
  efes::JsonWriter json;
  json.BeginObject();
  json.Key("rows");
  json.Number(size.rows);
  json.Key("cells");
  json.Number(size.cells);
  json.Key("injected_clusters");
  json.Number(fuzzed.injected_clusters.size());
  PrintJson(json);
  return efes::Status::OK();
}

/// The estimate_cold reference: the saved scenario estimated in process
/// without a cache, plus the dedup recall against the fuzzer's ground
/// truth.
efes::Status RunReference(const Args& args) {
  EFES_ASSIGN_OR_RETURN(uint64_t seed, ParseU64("seed", args.seed));
  EFES_ASSIGN_OR_RETURN(uint64_t entities,
                        ParseU64("entities", args.entities));
  EFES_ASSIGN_OR_RETURN(efes::FuzzedScenario fuzzed,
                        BenchScenario(seed, entities));
  EFES_ASSIGN_OR_RETURN(efes::IntegrationScenario scenario,
                        efes::LoadScenario(args.dir));
  efes::EstimationResult result;
  EFES_ASSIGN_OR_RETURN(
      std::string json,
      UncachedEstimate(scenario, efes::ExpectedQuality::kHighQuality,
                       &result));
  EFES_RETURN_IF_ERROR(efes::WriteFileAtomic(args.out, json));
  double recall = -1.0;
  for (const efes::ModuleRun& run : result.module_runs) {
    const auto* dedup =
        dynamic_cast<const efes::DedupComplexityReport*>(run.report.get());
    if (dedup != nullptr) recall = efes::InjectedClusterRecall(fuzzed, *dedup);
  }
  efes::JsonWriter json_out;
  json_out.BeginObject();
  json_out.Key("recall");
  json_out.Number(recall);
  PrintJson(json_out);
  return efes::Status::OK();
}

efes::Status RunEdit(const Args& args) {
  EFES_ASSIGN_OR_RETURN(uint64_t op, ParseU64("op", args.op));
  EFES_RETURN_IF_ERROR(ApplyEdit(args.dir, op));
  efes::JsonWriter json;
  json.BeginObject();
  json.Key("op");
  json.Number(static_cast<int64_t>(op));
  PrintJson(json);
  return efes::Status::OK();
}

/// The reestimate_warm references: replays the edit script on a pristine
/// copy of the scenario and estimates every op's state without a cache.
/// Shard J of K applies every edit but estimates only the ops with
/// op % K == J, so K processes on their own copies share the work.
efes::Status RunReplay(const Args& args) {
  EFES_ASSIGN_OR_RETURN(uint64_t ops, ParseU64("ops", args.ops));
  EFES_ASSIGN_OR_RETURN(uint64_t shard, ParseU64("shard", args.shard));
  EFES_ASSIGN_OR_RETURN(uint64_t shards, ParseU64("shards", args.shards));
  if (shards == 0) return efes::Status::InvalidArgument("--shards must be > 0");
  for (uint64_t op = 0; op < ops; ++op) {
    EFES_RETURN_IF_ERROR(ApplyEdit(args.dir, op));
    if (op % shards != shard) continue;
    EFES_ASSIGN_OR_RETURN(efes::IntegrationScenario scenario,
                          efes::LoadScenario(args.dir));
    EFES_ASSIGN_OR_RETURN(
        std::string json,
        UncachedEstimate(scenario, QualityOfOp(op), nullptr));
    EFES_RETURN_IF_ERROR(efes::WriteFileAtomic(
        args.out + "/" + std::to_string(op) + ".json", json));
  }
  efes::JsonWriter json;
  json.BeginObject();
  json.Key("ops");
  json.Number(static_cast<int64_t>(ops));
  PrintJson(json);
  return efes::Status::OK();
}

efes::Status RunCacheCheck(const Args& args) {
  const std::string path =
      efes::ProfileCache::FilePathInDirectory(args.cache_dir);
  const uint64_t corrupt_before = CounterValue("cache.load.corrupt_entries");
  efes::ProfileCache cache;
  EFES_RETURN_IF_ERROR(cache.LoadFromFile(path));
  efes::JsonWriter json;
  json.BeginObject();
  json.Key("entries");
  json.Number(cache.entry_count());
  json.Key("corrupt_entries");
  json.Number(static_cast<int64_t>(
      CounterValue("cache.load.corrupt_entries") - corrupt_before));
  PrintJson(json);
  return efes::Status::OK();
}

efes::Status RunTallCsv(const Args& args) {
  EFES_ASSIGN_OR_RETURN(uint64_t seed, ParseU64("seed", args.seed));
  EFES_ASSIGN_OR_RETURN(uint64_t rows, ParseU64("rows", args.rows));
  EFES_ASSIGN_OR_RETURN(InputSize size, WriteTallCsv(seed, rows, args.out));
  efes::JsonWriter json;
  json.BeginObject();
  json.Key("rows");
  json.Number(size.rows);
  json.Key("cells");
  json.Number(size.cells);
  PrintJson(json);
  return efes::Status::OK();
}

/// A fixed CPU and memory workload that no EFES change can alter: string
/// keys hashed into a map, then sorted. The driver times it next to every
/// op, so a co-tenant slowing the machine slows both and their ratio holds.
efes::Status RunCalibrate(const Args&) {
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::unordered_map<std::string, uint64_t> counts;
  std::vector<std::string> keys;
  for (uint64_t i = 0; i < 40000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::string key = std::to_string(x % 1000003);
    key += '_';
    key += std::to_string(i % 97);
    counts[key] += i;
    keys.push_back(std::move(key));
  }
  std::sort(keys.begin(), keys.end());
  uint64_t checksum = 0;
  for (const std::string& key : keys) checksum += counts[key];
  efes::JsonWriter json;
  json.BeginObject();
  json.Key("checksum");
  json.Number(static_cast<int64_t>(checksum & 0xFFFF));
  PrintJson(json);
  return efes::Status::OK();
}

// --- the traced run -------------------------------------------------------

/// What one traced estimate op works on. Exactly one of `dir` (load per
/// op, as the CLI does) and `scenario` (already loaded, as a server
/// session holds it) is set.
struct EstimateOp {
  std::string dir;
  const efes::IntegrationScenario* scenario = nullptr;
  efes::ExpectedQuality quality = efes::ExpectedQuality::kHighQuality;
  /// In-memory cache (server) or null (uncached CLI).
  efes::ProfileCache* cache = nullptr;
  /// Snapshot path loaded before and saved after the op (--cache-dir).
  std::string cache_path;
};

/// One estimate decomposed into its layer calls, each under a span: the
/// same calls EfesEngine::Run and the CLI make, in the same order.
/// Returns the rendered JSON so it can be checked against the child's.
efes::Result<std::string> TracedEstimate(SpanLog& log, const EstimateOp& op) {
  ScopedSpan root(log, "op");
  efes::ProfileCache snapshot_cache;
  efes::ProfileCache* cache = op.cache;
  if (!op.cache_path.empty()) {
    ScopedSpan span(log, "cache.load");
    EFES_RETURN_IF_ERROR(snapshot_cache.LoadFromFile(op.cache_path));
    cache = &snapshot_cache;
  }
  std::optional<efes::IntegrationScenario> loaded;
  if (op.scenario == nullptr) {
    ScopedSpan span(log, "scenario.load");
    EFES_ASSIGN_OR_RETURN(loaded, efes::LoadScenario(op.dir));
  }
  const efes::IntegrationScenario& scenario =
      op.scenario != nullptr ? *op.scenario : *loaded;
  efes::ScopedProfileCache scoped_cache(cache);
  const efes::EffortModel model = efes::EffortModel::PaperDefault();
  const efes::ExecutionSettings settings;
  efes::EstimationResult result;
  for (const auto& module : PipelineModules()) {
    efes::ModuleRun run;
    run.module = module->name();
    {
      ScopedSpan span(log, module->name() + ".assess");
      EFES_ASSIGN_OR_RETURN(run.report, module->AssessComplexity(scenario));
    }
    std::vector<efes::Task> tasks;
    {
      ScopedSpan span(log, module->name() + ".plan");
      EFES_ASSIGN_OR_RETURN(
          tasks, module->PlanTasks(*run.report, op.quality, settings));
    }
    {
      ScopedSpan span(log, "core.price");
      for (efes::Task& task : tasks) {
        const double minutes = model.Explain(task, settings).minutes;
        run.tasks.push_back(efes::TaskEstimate{std::move(task), minutes});
      }
    }
    result.estimate.tasks.insert(result.estimate.tasks.end(),
                                 run.tasks.begin(), run.tasks.end());
    result.module_runs.push_back(std::move(run));
  }
  std::string json;
  {
    ScopedSpan span(log, "experiment.render");
    json = EstimateJson(result);
    std::string text = result.ToText();
    if (text.empty()) return efes::Status::Internal("empty text report");
  }
  if (!op.cache_path.empty()) {
    ScopedSpan span(log, "cache.save");
    EFES_RETURN_IF_ERROR(snapshot_cache.SaveToFile(op.cache_path));
  }
  return json;
}

/// Counts and ratios the traced run reports next to its span times.
using Counts = std::map<std::string, double>;

/// Times the layers below the modules once, each on its own (these calls
/// also run inside structure.assess and the profiling of every module;
/// the program has no spans there yet).
efes::Status ProbeLayers(SpanLog& log, const efes::IntegrationScenario& scenario,
                         const std::string& dir, Counts* counts) {
  ScopedSpan root(log, "probe");
  {
    std::vector<std::string> csvs;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(dir)) {
      if (efes::EndsWith(entry.path().string(), ".csv")) {
        csvs.push_back(entry.path().string());
      }
    }
    std::sort(csvs.begin(), csvs.end());
    ScopedSpan span(log, "csv.read");
    for (const std::string& path : csvs) {
      EFES_RETURN_IF_ERROR(efes::ReadCsvFile(path).status());
    }
  }
  {
    ScopedSpan span(log, "csg.build");
    for (const efes::SourceBinding& source : scenario.sources) {
      efes::BuildCsg(source.database);
    }
  }
  {
    efes::CsgGraph target_graph;
    std::vector<efes::SourceStructureAssessment> assessments;
    {
      ScopedSpan span(log, "structure.detect");
      EFES_ASSIGN_OR_RETURN(
          assessments, efes::DetectStructureConflicts(scenario, &target_graph));
    }
    for (const efes::SourceStructureAssessment& assessment : assessments) {
      (*counts)["structure.conflicts"] +=
          static_cast<double>(assessment.conflicts.size());
      for (const efes::StructureConflict& conflict : assessment.conflicts) {
        (*counts)["structure.violations"] +=
            static_cast<double>(conflict.violation_count);
      }
    }
  }
  std::vector<efes::ProfileRequest> requests;
  for (const efes::SourceBinding& source : scenario.sources) {
    for (const efes::Table& table : source.database.tables()) {
      for (size_t c = 0; c < table.column_count(); ++c) {
        requests.push_back(
            {&table.column(c), table.def().attributes()[c].type});
      }
    }
  }
  {
    ScopedSpan span(log, "cache.fingerprint");
    for (const efes::ProfileRequest& request : requests) {
      efes::FingerprintColumn(*request.column, request.target_type);
    }
  }
  {
    efes::ScopedProfileCache no_cache(nullptr);
    size_t span_index = 0;
    {
      ScopedSpan span(log, "profiling.profile");
      span_index = span.index();
      EFES_RETURN_IF_ERROR(efes::ProfileColumns(requests).status());
    }
    InputSize size = SourceSize(scenario);
    (*counts)["profiling.cells_per_s"] =
        static_cast<double>(size.cells) /
        (log.spans()[span_index].ms() / 1e3);
  }
  InputSize size = SourceSize(scenario);
  (*counts)["scenario.rows"] = static_cast<double>(size.rows);
  (*counts)["scenario.cells"] = static_cast<double>(size.cells);
  return efes::Status::OK();
}

/// Times EfesEngine::Run as one call, reading the cache counters it
/// moves. Returns the rendered JSON, which the traced op must reproduce.
efes::Result<std::string> ProbeEngineRun(
    SpanLog& log, const efes::IntegrationScenario& scenario,
    efes::ExpectedQuality quality, efes::ProfileCache* cache,
    Counts* counts) {
  ScopedSpan root(log, "probe");
  efes::ScopedProfileCache scoped_cache(cache);
  const uint64_t hits = CounterValue("cache.hits");
  const uint64_t misses = CounterValue("cache.misses");
  const uint64_t stores = CounterValue("cache.stores");
  efes::RunOptions options;
  options.quality = quality;
  options.cache = cache;
  std::optional<efes::Result<efes::EstimationResult>> result;
  {
    ScopedSpan span(log, "engine.run");
    result.emplace(efes::MakeDefaultEngine().Run(scenario, options));
  }
  EFES_RETURN_IF_ERROR(result->status());
  const double hit_count =
      static_cast<double>(CounterValue("cache.hits") - hits);
  const double lookups =
      hit_count + static_cast<double>(CounterValue("cache.misses") - misses);
  (*counts)["cache.hit_rate"] = lookups > 0 ? hit_count / lookups : 0.0;
  (*counts)["cache.stores"] =
      static_cast<double>(CounterValue("cache.stores") - stores);
  return EstimateJson(**result);
}

/// Opens the profile_stream CSV with the CLI's settings.
efes::Result<efes::ChunkedCsvReader> OpenStream(const std::string& csv) {
  return efes::ChunkedCsvReader::Open(csv, efes::CsvReadOptions{},
                                      StreamProfileOptions().chunk_rows);
}

/// profile_stream's traced op: the calls `efes profile` makes. Pass 1
/// streams the chunks (csv.chunk) and infers each column's type from its
/// cells (profiling.infer); pass 2 streams them again and absorbs every
/// chunk into per-column sketches on the pool (profiling.absorb); the
/// sketches are finalized and rendered (profiling.finalize). Returns the
/// rendered statistics so repeated ops can be compared.
efes::Result<std::string> TracedProfile(SpanLog& log, const std::string& csv,
                                        std::vector<efes::DataType>* types) {
  ScopedSpan root(log, "op");
  using Chunk = std::vector<std::vector<std::string>>;
  EFES_ASSIGN_OR_RETURN(efes::ChunkedCsvReader reader, OpenStream(csv));
  const size_t width = reader.header().size();
  std::vector<char> all_integer(width, 1);
  std::vector<char> all_real(width, 1);
  while (!reader.done()) {
    std::optional<efes::Result<Chunk>> chunk;
    {
      ScopedSpan span(log, "csv.chunk");
      chunk.emplace(reader.NextChunk());
    }
    EFES_RETURN_IF_ERROR(chunk->status());
    ScopedSpan span(log, "profiling.infer");
    for (const std::vector<std::string>& row : **chunk) {
      for (size_t c = 0; c < width; ++c) {
        if (row[c].empty() || (!all_integer[c] && !all_real[c])) continue;
        efes::Value value = efes::Value::Text(row[c]);
        if (all_integer[c] && !value.CanCastTo(efes::DataType::kInteger)) {
          all_integer[c] = 0;
        }
        if (all_real[c] && !value.CanCastTo(efes::DataType::kReal)) {
          all_real[c] = 0;
        }
      }
    }
  }
  types->clear();
  for (size_t c = 0; c < width; ++c) {
    types->push_back(all_integer[c] ? efes::DataType::kInteger
                     : all_real[c]  ? efes::DataType::kReal
                                    : efes::DataType::kText);
  }
  const efes::ProfileOptions options = StreamProfileOptions();
  std::vector<efes::StatisticsSketch> sketches;
  for (efes::DataType type : *types) sketches.emplace_back(type, options);
  EFES_ASSIGN_OR_RETURN(efes::ChunkedCsvReader again, OpenStream(csv));
  while (!again.done()) {
    std::optional<efes::Result<Chunk>> chunk;
    {
      ScopedSpan span(log, "csv.chunk");
      chunk.emplace(again.NextChunk());
    }
    EFES_RETURN_IF_ERROR(chunk->status());
    const Chunk& rows = **chunk;
    if (rows.empty()) break;
    ScopedSpan span(log, "profiling.absorb");
    EFES_RETURN_IF_ERROR(efes::ParallelFor(width, [&](size_t c) {
      efes::StatisticsSketch partial((*types)[c], options);
      for (const std::vector<std::string>& row : rows) {
        EFES_RETURN_IF_ERROR(partial.Absorb(
            row[c].empty() ? efes::Value::Null() : efes::Value::Text(row[c])));
      }
      return sketches[c].Merge(partial);
    }));
  }
  ScopedSpan span(log, "profiling.finalize");
  std::string rendered;
  for (const efes::StatisticsSketch& sketch : sketches) {
    rendered += sketch.Finalize().ToString();
  }
  return rendered;
}

/// ProfileColumns over every profile_stream column under the workload's
/// budget. A column is materialized (probe.collect) right before its
/// profile and dropped after it, to bound memory.
efes::Status ProbeProfileColumns(SpanLog& log, const std::string& csv,
                                 const std::vector<efes::DataType>& types,
                                 Counts* counts) {
  ScopedSpan root(log, "probe");
  efes::ScopedProfileCache no_cache(nullptr);
  double profile_ms = 0.0;
  double cells = 0.0;
  for (size_t c = 0; c < types.size(); ++c) {
    std::vector<efes::Value> column;
    {
      ScopedSpan span(log, "probe.collect");
      EFES_ASSIGN_OR_RETURN(efes::ChunkedCsvReader reader, OpenStream(csv));
      while (!reader.done()) {
        EFES_ASSIGN_OR_RETURN(auto chunk, reader.NextChunk());
        for (const std::vector<std::string>& row : chunk) {
          column.push_back(row[c].empty() ? efes::Value::Null()
                                          : efes::Value::Text(row[c]));
        }
      }
    }
    size_t span_index = 0;
    {
      ScopedSpan span(log, "profiling.profile");
      span_index = span.index();
      EFES_RETURN_IF_ERROR(efes::ProfileColumns({{&column, types[c]}},
                                                StreamProfileOptions())
                               .status());
    }
    profile_ms += log.spans()[span_index].ms();
    cells += static_cast<double>(column.size());
  }
  (*counts)["profiling.cells_per_s"] = cells / (profile_ms / 1e3);
  return efes::Status::OK();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Per-layer milliseconds: a name's total duration within each "op" root
/// (median over ops), or within the "probe" roots (median over probes).
std::map<std::string, double> LayerMs(const SpanLog& log) {
  std::map<std::string, std::vector<double>> per_root;
  std::map<std::string, double> current;
  auto flush = [&] {
    for (const auto& [name, ms] : current) per_root[name].push_back(ms);
    current.clear();
  };
  const auto& spans = log.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0) {
      flush();
      if (spans[i].name == "op") current["op"] += spans[i].ms();
      continue;
    }
    current[spans[i].name] += spans[i].ms();
  }
  flush();
  std::map<std::string, double> layers;
  for (const auto& [name, values] : per_root) layers[name] = Median(values);
  return layers;
}

efes::Status RunTrace(const Args& args) {
  EFES_ASSIGN_OR_RETURN(uint64_t reps, ParseU64("reps", args.reps));
  EFES_ASSIGN_OR_RETURN(uint64_t first_op, ParseU64("op", args.op));
  SpanLog log;
  Counts counts;
  // Every traced op must render what the one-call path renders: the
  // engine for estimates, the first op for profiles.
  std::vector<std::string> outputs;
  bool outputs_match = true;
  auto check = [&](const std::string& traced, const std::string& expected) {
    outputs_match = outputs_match && traced == expected;
    outputs.push_back(traced);
  };
  const std::string& w = args.workload;
  if (w == "estimate_cold") {
    EstimateOp op;
    op.dir = args.dir;
    std::vector<std::string> traced;
    for (uint64_t r = 0; r < reps; ++r) {
      EFES_ASSIGN_OR_RETURN(std::string json, TracedEstimate(log, op));
      traced.push_back(std::move(json));
    }
    EFES_ASSIGN_OR_RETURN(efes::IntegrationScenario scenario,
                          efes::LoadScenario(args.dir));
    EFES_ASSIGN_OR_RETURN(
        std::string engine_json,
        ProbeEngineRun(log, scenario, efes::ExpectedQuality::kHighQuality,
                       nullptr, &counts));
    for (const std::string& json : traced) check(json, engine_json);
    EFES_RETURN_IF_ERROR(ProbeLayers(log, scenario, args.dir, &counts));
  } else if (w == "reestimate_warm") {
    // Continues the edit script where the measured ops stopped. Before
    // each traced op, EfesEngine::Run reads a copy of the same snapshot,
    // so both see one cache state.
    const std::string path =
        efes::ProfileCache::FilePathInDirectory(args.cache_dir);
    for (uint64_t r = 0; r < reps; ++r) {
      const uint64_t index = first_op + r;
      EFES_RETURN_IF_ERROR(ApplyEdit(args.dir, index));
      std::string engine_json;
      {
        efes::ProfileCache copy;
        EFES_RETURN_IF_ERROR(copy.LoadFromFile(path));
        EFES_ASSIGN_OR_RETURN(efes::IntegrationScenario scenario,
                              efes::LoadScenario(args.dir));
        EFES_ASSIGN_OR_RETURN(engine_json,
                              ProbeEngineRun(log, scenario, QualityOfOp(index),
                                             &copy, &counts));
      }
      EstimateOp op;
      op.dir = args.dir;
      op.quality = QualityOfOp(index);
      op.cache_path = path;
      EFES_ASSIGN_OR_RETURN(std::string json, TracedEstimate(log, op));
      check(json, engine_json);
      counts["cache.snapshot_bytes"] =
          static_cast<double>(std::filesystem::file_size(path));
    }
    EFES_ASSIGN_OR_RETURN(efes::IntegrationScenario scenario,
                          efes::LoadScenario(args.dir));
    EFES_RETURN_IF_ERROR(ProbeLayers(log, scenario, args.dir, &counts));
  } else if (w == "serve_mixed") {
    // A session: the scenario loaded once and the cache warmed by one
    // assessment pass (what `open` does), then estimates against both.
    std::optional<efes::Result<efes::IntegrationScenario>> loaded;
    {
      ScopedSpan root(log, "probe");
      ScopedSpan span(log, "scenario.load");
      loaded.emplace(efes::LoadScenario(args.dir));
    }
    EFES_RETURN_IF_ERROR(loaded->status());
    const efes::IntegrationScenario& scenario = **loaded;
    efes::ProfileCache cache;
    efes::RunOptions warm;
    warm.cache = &cache;
    EFES_RETURN_IF_ERROR(
        efes::MakeDefaultEngine().AssessComplexity(scenario, warm).status());
    EstimateOp op;
    op.scenario = &scenario;
    op.cache = &cache;
    std::vector<std::string> traced;
    for (uint64_t r = 0; r < reps; ++r) {
      EFES_ASSIGN_OR_RETURN(std::string json, TracedEstimate(log, op));
      traced.push_back(std::move(json));
    }
    EFES_ASSIGN_OR_RETURN(
        std::string engine_json,
        ProbeEngineRun(log, scenario, efes::ExpectedQuality::kHighQuality,
                       &cache, &counts));
    for (const std::string& json : traced) check(json, engine_json);
    EFES_RETURN_IF_ERROR(ProbeLayers(log, scenario, args.dir, &counts));
  } else if (w == "profile_stream") {
    std::vector<efes::DataType> types;
    for (uint64_t r = 0; r < reps; ++r) {
      EFES_ASSIGN_OR_RETURN(std::string rendered,
                            TracedProfile(log, args.csv, &types));
      check(rendered, outputs.empty() ? rendered : outputs.front());
    }
    EFES_RETURN_IF_ERROR(ProbeProfileColumns(log, args.csv, types, &counts));
  } else {
    return efes::Status::InvalidArgument("unknown workload '" + w + "'");
  }
  EFES_RETURN_IF_ERROR(
      efes::WriteFileAtomic(args.trace_out, log.ToChromeTraceJson()));

  // Attribution: the share of op time covered by named layer spans, and
  // the layer with the largest self time.
  std::map<std::string, double> self = log.SelfMsUnder("op");
  double op_ms = 0.0;
  for (const auto& span : log.spans()) {
    if (span.parent < 0 && span.name == "op") op_ms += span.ms();
  }
  std::string top_layer;
  double top_ms = -1.0;
  for (const auto& [name, ms] : self) {
    if (name != "op" && ms > top_ms) {
      top_layer = name;
      top_ms = ms;
    }
  }
  efes::JsonWriter json;
  json.BeginObject();
  json.Key("layers_ms");
  json.BeginObject();
  for (const auto& [name, ms] : LayerMs(log)) {
    json.Key(name);
    json.Number(ms);
  }
  json.EndObject();
  json.Key("self_ms");
  json.BeginObject();
  for (const auto& [name, ms] : self) {
    json.Key(name);
    json.Number(ms);
  }
  json.EndObject();
  json.Key("counts");
  json.BeginObject();
  for (const auto& [name, value] : counts) {
    json.Key(name);
    json.Number(value);
  }
  json.EndObject();
  json.Key("attributed_frac");
  json.Number(op_ms > 0 ? 1.0 - self["op"] / op_ms : 0.0);
  json.Key("top_layer");
  json.String(top_layer);
  json.Key("outputs_match");
  json.Bool(outputs_match);
  json.Key("output");
  json.String(outputs.empty() ? "" : outputs.front());
  PrintJson(json);
  return efes::Status::OK();
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: efesbench_probe <subcommand> [flags]\n");
    return 2;
  }
  const std::string command = argv[1];
  Args args;
  efes::Status parsed =
      ParseArgs(std::vector<std::string>(argv + 2, argv + argc), &args);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }
  std::optional<int64_t> threads = efes::ParseInt64(args.threads);
  efes::SetThreadCountOverride(
      threads.has_value() && *threads > 0 ? static_cast<size_t>(*threads)
                                          : kThreads);
  static const std::map<std::string, std::function<efes::Status(const Args&)>>
      kCommands = {{"scenario", RunScenario},     {"reference", RunReference},
                   {"edit", RunEdit},             {"replay", RunReplay},
                   {"cache-check", RunCacheCheck}, {"tall-csv", RunTallCsv},
                   {"calibrate", RunCalibrate},   {"trace", RunTrace}};
  auto command_it = kCommands.find(command);
  if (command_it == kCommands.end()) {
    std::fprintf(stderr, "unknown subcommand '%s'\n", command.c_str());
    return 2;
  }
  efes::Status status = command_it->second(args);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace efesbench

int main(int argc, char** argv) { return efesbench::Main(argc, argv); }
