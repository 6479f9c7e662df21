// The scenario fuzzer driver (scenario/fuzzer.h).
//
//   efes_fuzz run                    fuzz --fuzz-count seeds starting at
//                                    --fuzz-seed through the full engine
//   efes_fuzz corpus <manifest>      fuzz every seed listed in <manifest>
//                                    (one seed per line, '#' comments) —
//                                    the checked-in data/fuzz_corpus.txt
//   efes_fuzz generate <dir>         write the scenario of --fuzz-seed as
//                                    a scenario directory for inspection
//                                    with the main `efes` tool
//
// Output is one deterministic line per seed (every number rendered via
// FormatDouble) plus a summary line, so byte-diffing two runs — across
// thread counts or cache states — is the corpus determinism check used by
// check_build.sh --fuzz-corpus.
//
// Flags: --fuzz-seed=<n> (default 1), --fuzz-count=<n> (default 20),
// --quality=high|low, --modules=<list>, --threads=<n>,
// --cache-dir=<dir>, --no-cache.
//
// Exit codes: 0 success, 1 runtime/property failure, 2 usage error,
// 64 unknown flag.

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "efes/cache/profile_cache.h"
#include "efes/common/file_io.h"
#include "efes/common/flags.h"
#include "efes/common/parallel.h"
#include "efes/common/string_util.h"
#include "efes/dedup/dedup_module.h"
#include "efes/experiment/default_pipeline.h"
#include "efes/scenario/fuzzer.h"
#include "efes/scenario/scenario_io.h"

namespace {

constexpr int kExitUsage = 2;
constexpr int kExitUnknownFlag = 64;

struct FuzzFlags {
  uint64_t seed = 1;
  uint64_t count = 20;
  std::string quality = "high";
  std::string modules = efes::kDefaultModules;
  std::string cache_dir;
  bool no_cache = false;
};

int Usage(int exit_code = kExitUsage) {
  std::fprintf(stderr,
               "usage:\n"
               "  efes_fuzz run [flags]\n"
               "  efes_fuzz corpus <manifest> [flags]\n"
               "  efes_fuzz generate <dir> [flags]\n"
               "flags: --fuzz-seed=<n> --fuzz-count=<n> "
               "--quality=high|low\n"
               "       --modules=<list> --threads=<n> --cache-dir=<dir> "
               "--no-cache\n");
  return exit_code;
}

int Fail(const efes::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

efes::Status ParseUint(std::string_view value, uint64_t* out) {
  const std::optional<uint64_t> parsed = efes::ParseUint64(value);
  if (!parsed.has_value()) {
    return efes::Status::InvalidArgument("expected a number, got '" +
                                         std::string(value) + "'");
  }
  *out = *parsed;
  return efes::Status::OK();
}

/// One fuzzed seed through the engine; returns the deterministic report
/// line. `recall_out` receives the injected-cluster recall of the seed.
efes::Result<std::string> RunSeed(uint64_t seed, const FuzzFlags& flags,
                                  efes::ProfileCache* cache,
                                  double* recall_out) {
  EFES_ASSIGN_OR_RETURN(efes::FuzzedScenario fuzzed,
                        efes::FuzzScenario(seed));
  EFES_ASSIGN_OR_RETURN(efes::EfesEngine engine,
                        efes::MakeEngineForModules(flags.modules));
  efes::RunOptions options;
  options.quality = flags.quality == "low"
                        ? efes::ExpectedQuality::kLowEffort
                        : efes::ExpectedQuality::kHighQuality;
  options.cache = cache;
  EFES_ASSIGN_OR_RETURN(efes::EstimationResult result,
                        engine.Run(fuzzed.scenario, options));

  size_t rows = 0;
  for (const efes::SourceBinding& source : fuzzed.scenario.sources) {
    rows += source.database.TotalRowCount();
  }
  size_t findings = 0;
  size_t clusters = 0;
  double recall = 1.0;
  for (const efes::ModuleRun& run : result.module_runs) {
    if (run.module != "dedup" || run.report == nullptr) continue;
    const auto* report =
        dynamic_cast<const efes::DedupComplexityReport*>(run.report.get());
    if (report == nullptr) continue;
    findings = report->findings().size();
    for (const efes::DuplicateClusterFinding& f : report->findings()) {
      clusters += f.cluster_count;
    }
    recall = efes::InjectedClusterRecall(fuzzed, *report);
  }
  *recall_out = recall;
  std::string line =
      "seed=" + std::to_string(seed) +
      " sources=" + std::to_string(fuzzed.scenario.sources.size()) +
      " rows=" + std::to_string(rows) +
      " findings=" + std::to_string(findings) +
      " clusters=" + std::to_string(clusters) +
      " injected=" + std::to_string(fuzzed.injected_clusters.size()) +
      " recall=" + efes::FormatDouble(recall, 4) +
      " tasks=" + std::to_string(result.estimate.tasks.size()) +
      " minutes=" + efes::FormatDouble(result.estimate.TotalMinutes(), 4);
  return line;
}

int RunSeeds(const std::vector<uint64_t>& seeds, const FuzzFlags& flags,
             efes::ProfileCache* cache) {
  double recall_sum = 0.0;
  size_t with_injection = 0;
  for (uint64_t seed : seeds) {
    double recall = 1.0;
    auto line = RunSeed(seed, flags, cache, &recall);
    if (!line.ok()) return Fail(line.status());
    std::printf("%s\n", line->c_str());
    recall_sum += recall;
    ++with_injection;
  }
  double mean_recall =
      with_injection == 0 ? 1.0
                          : recall_sum / static_cast<double>(with_injection);
  std::printf("fuzz summary: seeds=%zu mean_recall=%s\n", seeds.size(),
              efes::FormatDouble(mean_recall, 4).c_str());
  return 0;
}

int RunGenerate(const std::string& directory, const FuzzFlags& flags) {
  auto fuzzed = efes::FuzzScenario(flags.seed);
  if (!fuzzed.ok()) return Fail(fuzzed.status());
  efes::Status saved = efes::SaveScenario(fuzzed->scenario, directory);
  if (!saved.ok()) return Fail(saved);
  std::printf(
      "wrote fuzz scenario seed=%llu (%zu sources, %zu injected "
      "clusters) to %s\n",
      static_cast<unsigned long long>(flags.seed),
      fuzzed->scenario.sources.size(), fuzzed->injected_clusters.size(),
      directory.c_str());
  return 0;
}

efes::Result<std::vector<uint64_t>> LoadManifest(const std::string& path) {
  EFES_ASSIGN_OR_RETURN(std::string text, efes::ReadFileToString(path));
  std::vector<uint64_t> seeds;
  size_t line_number = 0;
  for (const std::string& raw_line : efes::Split(text, '\n')) {
    ++line_number;
    std::string_view line = efes::Trim(raw_line);
    size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = efes::Trim(line.substr(0, hash));
    if (line.empty()) continue;
    uint64_t seed = 0;
    efes::Status parsed = ParseUint(line, &seed);
    if (!parsed.ok()) {
      return efes::Status::ParseError(
          path + ":" + std::to_string(line_number) + ": " +
          parsed.message());
    }
    seeds.push_back(seed);
  }
  if (seeds.empty()) {
    return efes::Status::InvalidArgument("manifest " + path +
                                         " lists no seeds");
  }
  return seeds;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  std::vector<std::string> rest(argv + 2, argv + argc);

  FuzzFlags fuzz;
  efes::FlagSet flags;
  flags.AddAction("fuzz-seed", "<n>", "first scenario seed (default 1)",
                  [&fuzz](std::string_view value) {
                    return ParseUint(value, &fuzz.seed);
                  });
  flags.AddAction("fuzz-count", "<n>",
                  "number of consecutive seeds for `run` (default 20)",
                  [&fuzz](std::string_view value) {
                    EFES_RETURN_IF_ERROR(ParseUint(value, &fuzz.count));
                    if (fuzz.count == 0) {
                      return efes::Status::InvalidArgument(
                          "--fuzz-count must be positive");
                    }
                    return efes::Status::OK();
                  });
  flags.AddChoice("quality", {"high", "low"}, "expected result quality",
                  &fuzz.quality);
  flags.AddString("modules", "<list>",
                  "comma-separated module subset (default: all)",
                  &fuzz.modules);
  flags.AddAction("threads", "<n>",
                  "worker threads (results do not depend on this)",
                  [](std::string_view value) {
                    uint64_t threads = 0;
                    EFES_RETURN_IF_ERROR(ParseUint(value, &threads));
                    if (threads == 0) {
                      return efes::Status::InvalidArgument(
                          "--threads must be positive");
                    }
                    efes::SetThreadCountOverride(
                        static_cast<size_t>(threads));
                    return efes::Status::OK();
                  });
  flags.AddString("cache-dir", "<dir>",
                  "persist the profile cache in this directory",
                  &fuzz.cache_dir);
  flags.AddBool("no-cache", "disable the profile cache", &fuzz.no_cache);

  efes::Status parsed = flags.Parse(&rest);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.message().c_str());
    return Usage(efes::IsUnknownFlagError(parsed) ? kExitUnknownFlag
                                                  : kExitUsage);
  }
  if (fuzz.no_cache && !fuzz.cache_dir.empty()) {
    std::fprintf(stderr, "--no-cache and --cache-dir are exclusive\n");
    return Usage(kExitUsage);
  }

  efes::ProfileCache cache;
  efes::ProfileCache* active_cache = fuzz.no_cache ? nullptr : &cache;
  if (active_cache != nullptr && !fuzz.cache_dir.empty()) {
    efes::Status loaded = cache.LoadFromFile(
        efes::ProfileCache::FilePathInDirectory(fuzz.cache_dir));
    if (!loaded.ok()) {
      std::fprintf(stderr, "warning: cache load failed: %s\n",
                   loaded.ToString().c_str());
    }
  }

  int code;
  if (command == "run") {
    if (!rest.empty()) return Usage();
    std::vector<uint64_t> seeds;
    for (uint64_t i = 0; i < fuzz.count; ++i) {
      seeds.push_back(fuzz.seed + i);
    }
    code = RunSeeds(seeds, fuzz, active_cache);
  } else if (command == "corpus") {
    if (rest.size() != 1) return Usage();
    auto seeds = LoadManifest(rest[0]);
    if (!seeds.ok()) return Fail(seeds.status());
    code = RunSeeds(*seeds, fuzz, active_cache);
  } else if (command == "generate") {
    if (rest.size() != 1) return Usage();
    code = RunGenerate(rest[0], fuzz);
  } else {
    return Usage();
  }
  if (code != 0) return code;

  if (active_cache != nullptr && !fuzz.cache_dir.empty()) {
    efes::Status saved = cache.SaveToFile(
        efes::ProfileCache::FilePathInDirectory(fuzz.cache_dir));
    if (!saved.ok()) {
      std::fprintf(stderr, "warning: cache save failed: %s\n",
                   saved.ToString().c_str());
    }
  }
  return 0;
}
