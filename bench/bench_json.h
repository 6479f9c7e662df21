// Shared main()-harness for the perf_* benches: runs the registered
// google-benchmark suites as before, then runs one representative
// workload twice — cold (fresh profile cache) and warm (same cache),
// the cache handed to the workload as its argument — against a zeroed
// telemetry registry and prints one machine-readable line per run on
// stdout:
//
//   {"bench": <name>, "wall_ms": ..., "threads": ..., "cache": "cold",
//    "counters": {...}}
//   {"bench": <name>, "wall_ms": ..., "threads": ..., "cache": "warm",
//    "cold_wall_ms": ..., "speedup": ..., "cache_hit_rate": ...,
//    "counters": {...}}
//
// so `build/bench/perf_x | tail -1 > BENCH_x.json` yields the warm-run
// record with the cold baseline and speedup embedded. `--threads=<n>`
// (stripped before google-benchmark sees the argv) pins the
// parallel-phase worker count; the emitted `threads` field records what
// the workload actually used.

#ifndef EFES_BENCH_BENCH_JSON_H_
#define EFES_BENCH_BENCH_JSON_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <functional>
#include <string_view>
#include <vector>

#include "efes/cache/profile_cache.h"
#include "efes/common/flags.h"
#include "efes/common/parallel.h"
#include "efes/common/clock.h"
#include "efes/common/metrics.h"
#include "efes/telemetry/report.h"

namespace efes {
namespace bench {

/// Removes `--threads=<n>` from argv (google-benchmark rejects unknown
/// flags) and applies it as the pool-size override.
inline void ApplyThreadsFlag(int* argc, char** argv) {
  static size_t threads = 0;
  FlagSet flags;
  flags.AddUint("threads", "<n>", "worker threads for parallel phases",
                &threads);
  flags.ParseArgvKeepUnknown(argc, argv);
  if (threads > 0) SetThreadCountOverride(threads);
}

/// A bench's representative workload. It profiles through the cache it
/// is handed; a workload that profiles nothing ignores it.
using Workload = std::function<void(ProfileCache* cache)>;

/// Times one `workload(cache)` call against a zeroed registry.
inline double TimeWorkloadMs(const Workload& workload, ProfileCache* cache) {
  MetricsRegistry::Global().Reset();
  const Clock& clock = *Clock::Default();
  const int64_t start_nanos = clock.NowNanos();
  workload(cache);
  return static_cast<double>(clock.NowNanos() - start_nanos) / 1e6;
}

inline int BenchMain(int argc, char** argv, std::string_view name,
                     const Workload& workload) {
  ApplyThreadsFlag(&argc, argv);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();

  // Cold/warm pair through one profile cache: the cold run populates it,
  // the warm run replays the same deterministic workload against it. The
  // ratio is the bench's incremental re-estimation speedup.
  ProfileCache cache;

  const double cold_ms = TimeWorkloadMs(workload, &cache);
  std::printf("%s\n",
              BenchJsonLine(name, cold_ms, ConfiguredThreadCount(),
                            {BenchJsonField::Text("cache", "cold")},
                            MetricsRegistry::Global().Snapshot())
                  .c_str());

  const double warm_ms = TimeWorkloadMs(workload, &cache);
  const MetricsSnapshot warm = MetricsRegistry::Global().Snapshot();
  uint64_t hits = 0;
  uint64_t misses = 0;
  for (const auto& counter : warm.counters) {
    if (counter.name == "cache.hits") hits = counter.value;
    if (counter.name == "cache.misses") misses = counter.value;
  }
  const double hit_rate =
      hits + misses == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(hits + misses);
  std::vector<BenchJsonField> extras = {
      BenchJsonField::Text("cache", "warm"),
      BenchJsonField::Number("cold_wall_ms", cold_ms),
      BenchJsonField::Number("speedup", warm_ms > 0.0 ? cold_ms / warm_ms
                                                      : 0.0),
      BenchJsonField::Number("cache_hit_rate", hit_rate),
  };
  std::printf("%s\n", BenchJsonLine(name, warm_ms, ConfiguredThreadCount(),
                                    extras, warm)
                          .c_str());
  return 0;
}

}  // namespace bench
}  // namespace efes

#endif  // EFES_BENCH_BENCH_JSON_H_
