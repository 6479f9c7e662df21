// The EFES command-line interface — the file-based counterpart of the
// original prototype's CLI (Section 6.1).
//
//   efes export-example <dir>      write the Figure 2 scenario to disk
//   efes assess <dir> [--discover] phase 1: complexity reports only
//                                  (--discover profiles the sources first)
//       --modules=<list>           run only these modules (comma-separated
//                                  subset of mapping,structure,values,dedup)
//   efes estimate <dir> [options]  phase 1 + 2: full effort estimate
//       --quality=high|low         expected result quality (default high)
//       --modules=<list>           module subset, as for assess
//       --config=<file>            effort configuration (effort_config.h;
//                                  its [dedup] section configures the
//                                  dedup detector and pair-review costs)
//       --format=text|json         output format
//       --explain[=<task-id>]      record estimate provenance and print
//                                  the evidence tree (or one task's
//                                  subtree); JSON output gains a
//                                  "provenance" section instead
//   efes execute <dir> <out>       actually perform the integration and
//                                  persist the integrated target
//       --quality=high|low         conflict-resolution strategy
//   efes plan <dir>                cost-benefit execution order
//       --quality=high|low         expected result quality (default high)
//   efes match <dir>               propose correspondences with the matcher
//   efes profile <csv>             stream one CSV file through the sketch
//                                  profiler (chunked ingest; the file is
//                                  never materialized whole)
//       --chunk-rows=<n>           rows per streamed block (0 = the whole
//                                  file; default 65536)
//   efes visualize <dir> [out.dot] Graphviz problem heatmap
//   efes study                     run the Figure 6/7 cross-validated study
//
// Telemetry/execution flags, accepted by every subcommand, are declared
// in GlobalFlags() below — the usage text renders straight from the
// FlagSet (common/flags.h), so help and parser cannot drift apart.
// Highlights: --metrics, --trace=<file>, --log-level=<level>,
// --threads=<n>, --lenient, --inject-fault=<point>[:spec], the
// profile cache pair --cache-dir=<dir> / --no-cache (cache/README in
// DESIGN.md §11), and the profiling policy --approx=exact|sketch|auto /
// --max-memory=<bytes> (DESIGN.md §16): profiling results are cached in
// memory per run by default; --cache-dir persists them across runs,
// --no-cache disables caching entirely. Cached and uncached runs print
// byte-identical output, at any thread count.
//
// Exit codes: 0 success, 1 runtime error, 2 usage error, 64 unknown flag.
// Scenario directories follow the layout of scenario/scenario_io.h.

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "efes/cache/profile_cache.h"
#include "efes/common/deadline.h"
#include "efes/common/fault.h"
#include "efes/common/file_io.h"
#include "efes/common/flags.h"
#include "efes/common/parallel.h"
#include "efes/common/string_util.h"
#include "efes/core/effort_config.h"
#include "efes/execute/integration_executor.h"
#include "efes/experiment/cost_benefit.h"
#include "efes/experiment/default_pipeline.h"
#include "efes/experiment/json_export.h"
#include "efes/experiment/study.h"
#include "efes/experiment/visualization.h"
#include "efes/common/csv.h"
#include "efes/matching/schema_matcher.h"
#include "efes/profiling/constraint_discovery.h"
#include "efes/profiling/sketch.h"
#include "efes/provenance/provenance.h"
#include "efes/relational/value.h"
#include "efes/provenance/render.h"
#include "efes/scenario/paper_example.h"
#include "efes/scenario/scenario_io.h"
#include "efes/telemetry/log.h"
#include "efes/common/metrics.h"
#include "efes/telemetry/report.h"
#include "efes/telemetry/trace.h"

namespace {

constexpr int kExitUsage = 2;
/// --timeout-ms expired (kDeadlineExceeded/kCancelled): distinct from the
/// generic failure exit so wrappers can tell "slow" from "broken".
constexpr int kExitDeadline = 3;
constexpr int kExitUnknownFlag = 64;

/// Global tool state set by the telemetry/execution flags.
struct CliFlags {
  bool metrics = false;
  std::string trace_path;
  /// Set when the subcommand already embedded the snapshot in its own
  /// output (estimate --format=json), so main() skips the table.
  bool metrics_emitted_inline = false;
  /// --lenient: load scenarios in recover mode, reporting DataIssues on
  /// stderr instead of aborting on the first defect.
  bool lenient = false;
  /// --cache-dir: persist the profile cache here across invocations.
  std::string cache_dir;
  /// --no-cache: disable profile caching for this run.
  bool no_cache = false;
  /// --timeout-ms: deadline for the whole invocation (0 = none).
  size_t timeout_ms = 0;
  /// --approx / --max-memory: the profiling policy of the whole
  /// invocation (profiling/sketch.h).
  efes::ProfileOptions profile;
};

CliFlags g_flags;

/// The profile cache of this invocation (null with --no-cache), passed
/// to every call that profiles.
efes::ProfileCache* g_cache = nullptr;

/// Parses a base-10 size_t where zero is a legal value (AddUint rejects
/// it), for flags whose zero means "whole file" or "unlimited".
efes::Status ParseNonNegative(std::string_view value, size_t* target) {
  std::string buffer(value);
  char* end = nullptr;
  unsigned long long v = std::strtoull(buffer.c_str(), &end, 10);
  if (buffer.empty() || end != buffer.c_str() + buffer.size()) {
    return efes::Status::InvalidArgument(
        "expected a non-negative integer, got '" + buffer + "'");
  }
  *target = static_cast<size_t>(v);
  return efes::Status::OK();
}

/// The telemetry/execution flags every subcommand accepts. Registered
/// once; Usage() renders this set, Parse strips it off the argv.
efes::FlagSet& GlobalFlags() {
  static efes::FlagSet* flags = [] {
    auto* f = new efes::FlagSet();  // EFES_LINT_ALLOW(banned-function): process-lifetime flag registry, leaked on purpose
    f->AddBool("metrics", "print the metrics table after the run",
               &g_flags.metrics);
    f->AddAction("trace", "<file>",
                 "write Chrome trace-event JSON (chrome://tracing)",
                 [](std::string_view value) {
                   if (value.empty()) {
                     return efes::Status::InvalidArgument(
                         "trace path must not be empty");
                   }
                   g_flags.trace_path = std::string(value);
                   efes::TraceRecorder::Global().set_enabled(true);
                   return efes::Status::OK();
                 });
    f->AddAction("log-level", "<level>",
                 "debug|info|warn|error|off (default off)",
                 [](std::string_view value) {
                   efes::LogLevel level;
                   if (!efes::ParseLogLevel(std::string(value), &level)) {
                     return efes::Status::InvalidArgument(
                         "no such log level: " + std::string(value));
                   }
                   // EFES_LINT_ALLOW(banned-function): process-lifetime log sink, leaked on purpose
                   static efes::StderrSink* sink = new efes::StderrSink();
                   efes::Logger::Global().set_sink(sink);
                   efes::Logger::Global().set_level(level);
                   return efes::Status::OK();
                 });
    f->AddAction("threads", "<n>",
                 "worker threads for parallel phases (default: hardware "
                 "concurrency; results do not depend on the thread count)",
                 [](std::string_view value) {
                   std::string buffer(value);
                   char* end = nullptr;
                   unsigned long long threads =
                       std::strtoull(buffer.c_str(), &end, 10);
                   if (buffer.empty() ||
                       end != buffer.c_str() + buffer.size() ||
                       threads == 0) {
                     return efes::Status::InvalidArgument(
                         "expected a positive thread count, got '" + buffer +
                         "'");
                   }
                   efes::SetThreadCountOverride(
                       static_cast<size_t>(threads));
                   return efes::Status::OK();
                 });
    f->AddBool("lenient",
               "recover-mode scenario loading: skip/repair defects, report "
               "them on stderr",
               &g_flags.lenient);
    f->AddAction("inject-fault", "<point>[:spec]",
                 "arm a deterministic fault point (robustness testing; see "
                 "common/fault.h)",
                 [](std::string_view value) {
                   return efes::FaultRegistry::Global().ArmFromString(
                       std::string(value));
                 });
    f->AddString("cache-dir", "<dir>",
                 "persist the profile cache in this directory (loaded "
                 "before the run, saved after)",
                 &g_flags.cache_dir);
    f->AddBool("no-cache",
               "disable the profile cache (every run recomputes all "
               "profiles)",
               &g_flags.no_cache);
    f->AddUint("timeout-ms", "<ms>",
               "abort the run with exit 3 once this deadline passes "
               "(checked at batch boundaries; no partial output)",
               &g_flags.timeout_ms);
    f->AddAction("approx", "exact|sketch|auto",
                 "statistics approximation mode (default exact; sketch "
                 "caps per-column memory, auto degrades only on overflow)",
                 [](std::string_view value) {
                   EFES_ASSIGN_OR_RETURN(
                       g_flags.profile.mode,
                       efes::ParseApproximationMode(value));
                   return efes::Status::OK();
                 });
    // Unlike an AddUint target, zero is a meaningful value here
    // (unlimited), so it parses via AddAction.
    f->AddAction("max-memory", "<bytes>",
                 "per-column profiling memory budget; exact mode fails when "
                 "it would overflow, sketch/auto coarsen deterministically",
                 [](std::string_view value) {
                   return ParseNonNegative(
                       value, &g_flags.profile.max_memory_bytes);
                 });
    return f;
  }();
  return *flags;
}

int Usage(int exit_code = kExitUsage) {
  std::fprintf(
      stderr,
      "usage:\n"
      "  efes export-example <dir>\n"
      "  efes assess <dir> [--discover] [--modules=<list>]\n"
      "  efes estimate <dir> [--quality=high|low] [--config=<file>]\n"
      "                     [--modules=<list>] [--format=text|json]\n"
      "                     [--out=<file>] [--explain[=<task-id>]]\n"
      "  efes match <dir>\n"
      "  efes profile <csv-file> [--chunk-rows=<n>]\n"
      "  efes execute <dir> <out-dir> [--quality=high|low]\n"
      "  efes plan <dir> [--quality=high|low]\n"
      "  efes visualize <dir> [<out.dot>]\n"
      "  efes study\n"
      "telemetry/execution flags (any subcommand):\n%s",
      GlobalFlags().UsageText().c_str());
  return exit_code;
}

/// Maps a FlagSet parse failure to the tool convention: unknown flags
/// exit 64, malformed values exit 2, both after the usage text.
int FlagError(const efes::Status& status) {
  std::fprintf(stderr, "%s\n", status.message().c_str());
  return Usage(efes::IsUnknownFlagError(status) ? kExitUnknownFlag
                                                : kExitUsage);
}

/// Parses subcommand-local flags; everything left in `options` after the
/// parse is unexpected. Returns -1 to continue, an exit code otherwise.
int ParseSubcommandFlags(const efes::FlagSet& flags,
                         std::vector<std::string>* options) {
  efes::Status parsed = flags.Parse(options);
  if (!parsed.ok()) return FlagError(parsed);
  if (!options->empty()) {
    std::fprintf(stderr, "unexpected argument: %s\n",
                 options->front().c_str());
    return Usage(kExitUsage);
  }
  return -1;
}

int Fail(const efes::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return efes::IsCancellation(status.code()) ? kExitDeadline : 1;
}

efes::ExpectedQuality QualityFromString(const std::string& quality) {
  return quality == "low" ? efes::ExpectedQuality::kLowEffort
                          : efes::ExpectedQuality::kHighQuality;
}

/// RunOptions for this invocation: quality/settings as given, plus the
/// CLI-wide profile cache.
efes::RunOptions MakeRunOptions(
    efes::ExpectedQuality quality = efes::ExpectedQuality::kHighQuality,
    const efes::ExecutionSettings& settings = {}) {
  efes::RunOptions options;
  options.quality = quality;
  options.settings = settings;
  options.cache = g_cache;
  options.profile = g_flags.profile;
  return options;
}

/// Prints the metrics table / writes the trace file after a successful
/// run. Without telemetry flags this is a no-op, leaving the output
/// byte-identical to the untelemetered CLI.
int EmitTelemetry() {
  if (g_flags.metrics && !g_flags.metrics_emitted_inline) {
    std::string report = efes::RenderMetricsReport(
        efes::MetricsRegistry::Global().Snapshot());
    std::printf("=== telemetry ===\n%s", report.c_str());
  }
  if (!g_flags.trace_path.empty()) {
    efes::Status written = efes::WriteFileAtomic(
        g_flags.trace_path,
        efes::TraceRecorder::Global().ToChromeTraceJson());
    if (!written.ok()) return Fail(written);
    std::printf("trace written to %s (open in chrome://tracing)\n",
                g_flags.trace_path.c_str());
  }
  return 0;
}

/// Loads a scenario honoring --lenient. In lenient mode the survived
/// defects are listed on stderr (stdout stays clean for the actual
/// output) and the run proceeds on the salvaged scenario.
efes::Result<efes::IntegrationScenario> LoadScenarioCli(
    const std::string& directory) {
  efes::LoadOptions options;
  if (g_flags.lenient) {
    options.mode = efes::LoadOptions::Mode::kRecover;
  }
  efes::ScenarioLoadReport report;
  auto scenario = efes::LoadScenario(directory, options, &report);
  if (scenario.ok() && report.degraded) {
    std::fprintf(stderr,
                 "lenient load: %zu issue(s) recovered from:\n%s",
                 report.issues.size(),
                 efes::RenderDataIssues(report.issues).c_str());
  }
  return scenario;
}

int RunExportExample(const std::string& directory) {
  auto scenario = efes::MakePaperExample();
  if (!scenario.ok()) return Fail(scenario.status());
  efes::Status status = efes::SaveScenario(*scenario, directory);
  if (!status.ok()) return Fail(status);
  std::printf("wrote the Figure 2 example scenario to %s\n",
              directory.c_str());
  return 0;
}

// Completeness (Section 3.1): profile each source and declare the mined
// constraints on its schema before assessing.
efes::Status DiscoverSourceConstraints(efes::IntegrationScenario* scenario) {
  for (efes::SourceBinding& source : scenario->sources) {
    EFES_ASSIGN_OR_RETURN(efes::Database completed,
                          efes::DatabaseWithDiscoveredConstraints(
                              source.database, {}, g_cache));
    std::printf("# %s: %zu constraints after profiling (was %zu)\n",
                source.database.name().c_str(),
                completed.schema().constraints().size(),
                source.database.schema().constraints().size());
    source.database = std::move(completed);
  }
  return efes::Status::OK();
}

int RunAssess(const std::string& directory,
              std::vector<std::string> options) {
  bool discover = false;
  std::string modules = efes::kDefaultModules;
  efes::FlagSet flags;
  flags.AddBool("discover",
                "profile the sources and declare mined constraints first",
                &discover);
  flags.AddString("modules", "<list>",
                  "comma-separated module subset (default: all)", &modules);
  int code = ParseSubcommandFlags(flags, &options);
  if (code >= 0) return code;
  auto scenario = LoadScenarioCli(directory);
  if (!scenario.ok()) return Fail(scenario.status());
  if (discover) {
    efes::Status status = DiscoverSourceConstraints(&*scenario);
    if (!status.ok()) return Fail(status);
  }
  auto engine = efes::MakeEngineForModules(modules);
  if (!engine.ok()) return Fail(engine.status());
  auto reports = engine->AssessComplexity(*scenario, MakeRunOptions());
  if (!reports.ok()) return Fail(reports.status());
  for (const auto& report : *reports) {
    std::printf("=== %s ===\n%s\n", report->module_name().c_str(),
                report->ToText().c_str());
  }
  return 0;
}

int RunEstimate(const std::string& directory,
                std::vector<std::string> options) {
  std::string quality = "high";
  std::string format = "text";
  std::string out_path;
  std::string modules = efes::kDefaultModules;
  efes::EstimationConfig config;
  efes::FlagSet flags;
  flags.AddChoice("quality", {"high", "low"}, "expected result quality",
                  &quality);
  flags.AddChoice("format", {"text", "json"}, "output format", &format);
  flags.AddString("modules", "<list>",
                  "comma-separated module subset (default: all)", &modules);
  flags.AddString("out", "<file>", "write the JSON export here", &out_path);
  flags.AddAction("config", "<file>", "effort configuration file",
                  [&config](std::string_view value) {
                    EFES_ASSIGN_OR_RETURN(
                        config, efes::LoadEffortConfig(std::string(value)));
                    return efes::Status::OK();
                  });
  bool explain = false;
  std::string explain_task;
  flags.AddOptional("explain", "<task-id>",
                    "record estimate provenance; print the evidence tree "
                    "(optionally one task's subtree)",
                    [&explain, &explain_task](std::string_view value) {
                      explain = true;
                      explain_task = std::string(value);
                      return efes::Status::OK();
                    });
  int code = ParseSubcommandFlags(flags, &options);
  if (code >= 0) return code;
  auto scenario = LoadScenarioCli(directory);
  if (!scenario.ok()) return Fail(scenario.status());
  auto engine_result = efes::MakeEngineForModules(
      modules, std::move(config.model), config.dedup);
  if (!engine_result.ok()) return Fail(engine_result.status());
  efes::EfesEngine engine = std::move(*engine_result);
  // Recording covers the engine run only: off (the default) leaves the
  // pipeline byte-identical to an unexplained run.
  efes::ProvenanceRecorder recorder;
  efes::RunOptions run_options =
      MakeRunOptions(QualityFromString(quality), config.settings);
  if (explain) run_options.recorder = &recorder;
  auto result = engine.Run(*scenario, run_options);
  if (!result.ok()) return Fail(result.status());
  efes::ProvenanceSnapshot provenance;
  if (explain) provenance = recorder.Snapshot();
  if (!out_path.empty()) {
    // --out writes the JSON export atomically (temp + rename): a reader
    // polling the file never sees a half-written document.
    efes::Status written = efes::WriteEstimationResultJsonFile(
        *result, out_path, nullptr, explain ? &provenance : nullptr);
    if (!written.ok()) return Fail(written);
    std::printf("estimate written to %s\n", out_path.c_str());
    return 0;
  }
  if (format == "json") {
    efes::MetricsSnapshot telemetry;
    if (g_flags.metrics) {
      // Embed the snapshot as the export's `telemetry` section instead
      // of appending a table that would trail the JSON document.
      g_flags.metrics_emitted_inline = true;
      telemetry = efes::MetricsRegistry::Global().Snapshot();
    }
    std::printf("%s\n",
                efes::EstimationResultToJson(
                    *result, g_flags.metrics ? &telemetry : nullptr,
                    explain ? &provenance : nullptr)
                    .c_str());
  } else {
    std::printf("%s", result->ToText().c_str());
    if (explain) {
      auto tree = efes::RenderProvenanceTree(provenance, explain_task);
      if (tree.ok()) {
        std::printf("\n=== provenance ===\n%s", tree->c_str());
      } else if (tree.status().code() == efes::StatusCode::kNotFound) {
        // A bad --explain=<task-id> is a real error (the tree exists,
        // the caller asked for a task that does not).
        return Fail(tree.status());
      } else {
        // Degraded recording/export: the estimate stands, the
        // explanation is just unavailable.
        std::fprintf(stderr, "warning: %s\n",
                     tree.status().ToString().c_str());
      }
    }
  }
  return 0;
}

int RunMatch(const std::string& directory) {
  auto scenario = LoadScenarioCli(directory);
  if (!scenario.ok()) return Fail(scenario.status());
  efes::SchemaMatcher matcher;
  for (const efes::SourceBinding& source : scenario->sources) {
    std::printf("# %s -> target\n", source.database.name().c_str());
    auto discovered = matcher.Match(source.database, scenario->target,
                                    g_flags.profile, g_cache);
    if (!discovered.ok()) return Fail(discovered.status());
    std::printf("%s",
                efes::WriteCorrespondences(*discovered).c_str());
  }
  return 0;
}

int RunExecute(const std::string& directory,
               const std::string& output_directory,
               std::vector<std::string> options) {
  std::string quality = "high";
  efes::FlagSet flags;
  flags.AddChoice("quality", {"high", "low"},
                  "conflict-resolution strategy", &quality);
  int code = ParseSubcommandFlags(flags, &options);
  if (code >= 0) return code;
  efes::IntegrationExecutor::Options executor_options;
  executor_options.quality = QualityFromString(quality);
  auto scenario = LoadScenarioCli(directory);
  if (!scenario.ok()) return Fail(scenario.status());
  efes::IntegrationExecutor executor(executor_options);
  efes::ExecutionReport report;
  auto integrated = executor.Execute(*scenario, &report);
  if (!integrated.ok()) return Fail(integrated.status());
  // Persist the integrated instance as a target-only scenario directory.
  efes::IntegrationScenario result("integrated", std::move(*integrated));
  efes::Status status = efes::SaveScenario(result, output_directory);
  if (!status.ok()) return Fail(status);
  std::printf("%s\nintegrated database written to %s\n",
              report.ToString().c_str(), output_directory.c_str());
  return 0;
}

int RunPlan(const std::string& directory,
            std::vector<std::string> options) {
  std::string quality = "high";
  efes::FlagSet flags;
  flags.AddChoice("quality", {"high", "low"}, "expected result quality",
                  &quality);
  int code = ParseSubcommandFlags(flags, &options);
  if (code >= 0) return code;
  auto scenario = LoadScenarioCli(directory);
  if (!scenario.ok()) return Fail(scenario.status());
  efes::EfesEngine engine = efes::MakeDefaultEngine();
  auto result =
      engine.Run(*scenario, MakeRunOptions(QualityFromString(quality)));
  if (!result.ok()) return Fail(result.status());
  efes::CostBenefitCurve curve =
      efes::AnalyzeCostBenefit(result->estimate);
  std::printf("%s", curve.ToText().c_str());
  std::printf(
      "\n50%% quality after %.0f min, 90%% after %.0f min, done after "
      "%.0f min.\n",
      curve.MinutesToReach(0.5), curve.MinutesToReach(0.9),
      curve.total_minutes);
  return 0;
}

int RunVisualize(const std::string& directory,
                 const std::string& output_path) {
  auto scenario = LoadScenarioCli(directory);
  if (!scenario.ok()) return Fail(scenario.status());
  efes::EfesEngine engine = efes::MakeDefaultEngine();
  auto result = engine.Run(*scenario, MakeRunOptions());
  if (!result.ok()) return Fail(result.status());
  std::string dot = efes::RenderProblemHeatmapDot(
      *scenario, efes::CollectProblemCounts(*result));
  if (output_path.empty() || output_path == "-") {
    std::printf("%s", dot.c_str());
    return 0;
  }
  efes::Status written = efes::WriteFileAtomic(output_path, dot);
  if (!written.ok()) return Fail(written);
  std::printf("problem heatmap written to %s (render with: dot -Tsvg %s)\n",
              output_path.c_str(), output_path.c_str());
  return 0;
}

int RunStudy() {
  auto studies = efes::RunCrossValidatedStudies(
      efes::StudyOptions().ground_truth_seed, g_cache);
  if (!studies.ok()) return Fail(studies.status());
  std::printf("%s\n%s\noverall rmse: Efes %.3f vs Counting %.3f\n",
              studies->bibliographic.ToText().c_str(),
              studies->music.ToText().c_str(), studies->overall_efes_rmse,
              studies->overall_counting_rmse);
  return 0;
}

// Streams one CSV file through the sketch profiler in a single pass:
// each block of --chunk-rows rows is absorbed, one column per task,
// straight into that column's inferring sketch (profiling/sketch.h),
// which types the column as it goes, under the global --approx /
// --max-memory policy. The file is never materialized whole, so this
// handles sources far beyond what the scenario loader would hold in
// memory; output is byte-identical for any --threads and any
// --chunk-rows. So are the errors: a read error wins wherever it is,
// and otherwise an exact --max-memory refusal names the lowest-numbered
// column that overflows anywhere in the file, at its first overflow.
// The pass therefore reads on after a refusal, absorbing only the
// columns before the refused one. `args` is everything after the
// subcommand; like a global flag, --chunk-rows may precede the path.
int RunProfile(std::vector<std::string> args) {
  size_t chunk_rows = efes::ProfileOptions().chunk_rows;
  efes::FlagSet flags;
  // Zero is a meaningful value (the whole file), so it parses via
  // AddAction rather than AddUint.
  flags.AddAction("chunk-rows", "<n>",
                  "rows per streamed block (0 = the whole file)",
                  [&chunk_rows](std::string_view value) {
                    return ParseNonNegative(value, &chunk_rows);
                  });
  efes::Status parsed =
      flags.Parse(&args, efes::FlagSet::UnknownFlags::kKeep);
  if (!parsed.ok()) return FlagError(parsed);
  if (args.empty()) return Usage();
  const std::string path = args[0];
  args.erase(args.begin());
  int code = ParseSubcommandFlags(efes::FlagSet(), &args);
  if (code >= 0) return code;
  efes::CsvReadOptions csv_options;
  if (g_flags.lenient) {
    csv_options.mode = efes::CsvReadOptions::Mode::kRecover;
  }
  auto reader = efes::ChunkedCsvReader::Open(path, csv_options, chunk_rows);
  if (!reader.ok()) return Fail(reader.status());
  const std::vector<std::string>& header = reader->header();
  std::vector<efes::StatisticsSketch> columns(
      header.size(), efes::StatisticsSketch::Inferring(g_flags.profile));
  std::vector<efes::Status> refusals(header.size());
  size_t first_refused = header.size();
  while (!reader->done()) {
    std::optional<efes::Result<efes::CsvRows>> rows;
    {
      efes::TraceSpan span("csv.chunk");
      rows.emplace(reader->NextRows());
    }
    if (!rows->ok()) return Fail(rows->status());
    const efes::CsvRows& block = **rows;
    // Only task c touches columns[c] and refusals[c], and blocks are
    // absorbed in order.
    efes::TraceSpan span("profiling.absorb");
    efes::Status absorbed =
        efes::ParallelFor(first_refused, [&](size_t c) -> efes::Status {
          for (size_t r = 0; r < block.size(); ++r) {
            const std::string_view cell = block.cell(r, c);
            efes::Status status = cell.empty()
                                      ? columns[c].Absorb(efes::Value::Null())
                                      : columns[c].AbsorbText(cell);
            if (!status.ok()) {
              refusals[c] = std::move(status);
              break;
            }
          }
          return efes::Status::OK();
        });
    if (!absorbed.ok()) return Fail(absorbed);
    for (size_t c = 0; c < first_refused; ++c) {
      if (!refusals[c].ok()) {
        first_refused = c;
        break;
      }
    }
  }
  if (first_refused < header.size()) return Fail(refusals[first_refused]);
  std::printf("# %s: %zu rows, %zu columns\n", path.c_str(),
              reader->rows_delivered(), header.size());
  for (size_t c = 0; c < header.size(); ++c) {
    efes::AttributeStatistics stats = columns[c].Finalize();
    std::printf(
        "=== column %s (%s%s) ===\n%s\n", header[c].c_str(),
        std::string(efes::DataTypeToString(columns[c].target_type())).c_str(),
        columns[c].effective_mode() == efes::ApproximationMode::kSketch
            ? ", sketch"
            : "",
        stats.ToString().c_str());
  }
  return 0;
}

int Dispatch(const std::string& command, std::vector<std::string> rest) {
  // Subcommands without flags of their own: any flag left after the
  // global ones is unknown.
  if (command == "study" || command == "export-example" ||
      command == "match" || command == "visualize") {
    for (const std::string& option : rest) {
      if (efes::StartsWith(option, "--")) {
        std::fprintf(stderr, "unknown flag: %s\n", option.c_str());
        return Usage(kExitUnknownFlag);
      }
    }
  }
  if (command == "study") {
    if (!rest.empty()) return Usage();
    return RunStudy();
  }
  if (command == "export-example") {
    if (rest.size() != 1) return Usage();
    return RunExportExample(rest[0]);
  }
  if (command == "assess") {
    if (rest.empty()) return Usage();
    std::string directory = rest[0];
    rest.erase(rest.begin());
    return RunAssess(directory, std::move(rest));
  }
  if (command == "match") {
    if (rest.size() != 1) return Usage();
    return RunMatch(rest[0]);
  }
  if (command == "execute") {
    if (rest.size() < 2) return Usage();
    std::string directory = rest[0];
    std::string output = rest[1];
    rest.erase(rest.begin(), rest.begin() + 2);
    return RunExecute(directory, output, std::move(rest));
  }
  if (command == "plan") {
    if (rest.empty()) return Usage();
    std::string directory = rest[0];
    rest.erase(rest.begin());
    return RunPlan(directory, std::move(rest));
  }
  if (command == "visualize") {
    if (rest.empty() || rest.size() > 2) return Usage();
    return RunVisualize(rest[0], rest.size() == 2 ? rest[1] : "");
  }
  if (command == "estimate") {
    if (rest.empty()) return Usage();
    std::string directory = rest[0];
    rest.erase(rest.begin());
    return RunEstimate(directory, std::move(rest));
  }
  if (command == "profile") return RunProfile(std::move(rest));
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  std::vector<std::string> rest(argv + 2, argv + argc);

  // Strip the global flags; subcommand flags stay for Dispatch.
  efes::Status parsed =
      GlobalFlags().Parse(&rest, efes::FlagSet::UnknownFlags::kKeep);
  if (!parsed.ok()) return FlagError(parsed);
  if (g_flags.no_cache && !g_flags.cache_dir.empty()) {
    std::fprintf(stderr, "--no-cache and --cache-dir are exclusive\n");
    return Usage(kExitUsage);
  }

  // The profile cache: in-memory per run by default, persisted with
  // --cache-dir, off with --no-cache. A missing/corrupt snapshot is a
  // cold start, never an error.
  efes::ProfileCache cache;
  if (!g_flags.no_cache) {
    g_cache = &cache;
    if (!g_flags.cache_dir.empty()) {
      efes::Status loaded = cache.LoadFromFile(
          efes::ProfileCache::FilePathInDirectory(g_flags.cache_dir));
      if (!loaded.ok()) {
        std::fprintf(stderr, "warning: cache load failed: %s\n",
                     loaded.ToString().c_str());
      }
    }
  }

  // --timeout-ms: install a deadline-carrying cancel token for the whole
  // invocation. The engine and the parallel loops check it at batch
  // boundaries, so expiry aborts with kDeadlineExceeded (exit 3 via
  // Fail) instead of producing a torn result.
  efes::CancelToken deadline_token;
  std::optional<efes::ScopedCancelToken> scoped_deadline;
  if (g_flags.timeout_ms > 0) {
    deadline_token.SetDeadline(g_flags.timeout_ms);
    scoped_deadline.emplace(&deadline_token);
  }

  int code = Dispatch(command, std::move(rest));
  if (code != 0) return code;

  if (g_cache != nullptr && !g_flags.cache_dir.empty()) {
    efes::Status saved = cache.SaveToFile(
        efes::ProfileCache::FilePathInDirectory(g_flags.cache_dir));
    if (!saved.ok()) {
      // A failed save degrades the next run to cold; it does not fail
      // this one.
      std::fprintf(stderr, "warning: cache save failed: %s\n",
                   saved.ToString().c_str());
    }
  }
  return EmitTelemetry();
}
