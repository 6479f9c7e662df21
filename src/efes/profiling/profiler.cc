#include "efes/profiling/profiler.h"

#include <algorithm>
#include <mutex>

#include "efes/cache/fingerprint.h"
#include "efes/cache/profile_cache.h"
#include "efes/common/clock.h"
#include "efes/common/metrics.h"
#include "efes/common/parallel.h"
#include "efes/common/thread_annotations.h"

namespace efes {

namespace {

// Ambient options: every live ScopedProfileOptions in installation
// order. Concurrent runs (efes_serve) open and close scopes in any order,
// so each scope removes exactly its own entry instead of restoring a
// predecessor that may already be gone.
std::mutex g_options_mutex;
std::vector<const ScopedProfileOptions*> g_live_options
    EFES_GUARDED_BY(g_options_mutex);

/// True when the options can change the finalized statistics: any
/// capped mode makes the result a function of the budget too, so cache
/// keys must separate it from the exact, unbudgeted profile.
bool CapActive(const ProfileOptions& options) {
  return options.mode != ApproximationMode::kExact ||
         options.max_memory_bytes != 0;
}

/// Key of the finalized statistics: the legacy column fingerprint, and
/// when a cap is active, the approximation configuration mixed in.
uint64_t StatisticsKey(const std::vector<Value>& column, DataType target_type,
                       const ProfileOptions& options) {
  const uint64_t base = FingerprintColumn(column, target_type);
  if (!CapActive(options)) return base;
  Fingerprinter fp;
  fp.MixString("profile.capped");
  fp.MixUint64(base);
  fp.MixUint64(static_cast<uint64_t>(options.mode));
  fp.MixUint64(options.max_memory_bytes);
  return fp.digest();
}

/// Content address of one chunk's partial sketch (the spill-to-cache
/// key): chunk values in row order plus everything that shapes the
/// sketch state — target type, mode, and budget.
uint64_t ChunkSketchKey(const std::vector<Value>& column, size_t begin,
                        size_t end, DataType target_type,
                        const ProfileOptions& options) {
  Fingerprinter fp;
  fp.MixString("profile.chunk");
  fp.MixUint64(static_cast<uint64_t>(target_type));
  fp.MixUint64(static_cast<uint64_t>(options.mode));
  fp.MixUint64(options.max_memory_bytes);
  fp.MixUint64(end - begin);
  for (size_t i = begin; i < end; ++i) fp.MixValue(column[i]);
  return fp.digest();
}

}  // namespace

ProfileOptions ActiveProfileOptions() {
  std::lock_guard<std::mutex> lock(g_options_mutex);
  return g_live_options.empty() ? ProfileOptions{}
                                : g_live_options.back()->options_;
}

ScopedProfileOptions::ScopedProfileOptions(const ProfileOptions& options)
    : options_(options) {
  std::lock_guard<std::mutex> lock(g_options_mutex);
  g_live_options.push_back(this);
}

ScopedProfileOptions::~ScopedProfileOptions() {
  std::lock_guard<std::mutex> lock(g_options_mutex);
  g_live_options.erase(
      std::find(g_live_options.begin(), g_live_options.end(), this));
}

Result<AttributeStatistics> ProfileColumn(const std::vector<Value>& column,
                                          DataType target_type,
                                          const ProfileOptions& options) {
  static Counter& columns_profiled =
      MetricsRegistry::Global().GetCounter("profiling.statistics.columns");
  static Counter& cells_scanned =
      MetricsRegistry::Global().GetCounter("profiling.statistics.cells");
  static Counter& chunks_absorbed =
      MetricsRegistry::Global().GetCounter("profiling.statistics.chunks");
  static Counter& sketch_degrades =
      MetricsRegistry::Global().GetCounter("profiling.statistics.degraded");
  static Histogram& compute_ms =
      MetricsRegistry::Global().GetHistogram("profiling.statistics.ms");

  ProfileCache* cache = ProfileCache::Active();
  uint64_t key = 0;
  if (cache != nullptr) {
    key = StatisticsKey(column, target_type, options);
    if (std::optional<AttributeStatistics> hit =
            cache->LookupStatistics(key)) {
      return *std::move(hit);
    }
  }

  columns_profiled.Increment();
  cells_scanned.Increment(column.size());
  const int64_t start_nanos = Clock::Default()->NowNanos();

  const size_t chunk_rows =
      options.chunk_rows == 0 ? column.size() : options.chunk_rows;
  StatisticsSketch accumulator(target_type, options);
  if (column.size() <= chunk_rows) {
    chunks_absorbed.Increment();
    EFES_RETURN_IF_ERROR(accumulator.AbsorbRange(column, 0, column.size()));
  } else {
    const size_t chunk_count = (column.size() + chunk_rows - 1) / chunk_rows;
    chunks_absorbed.Increment(chunk_count);
    // Waves of one chunk per configured thread: ParallelFor builds the
    // wave's partial sketches concurrently, then the wave folds into the
    // accumulator in canonical chunk order and is released — peak memory
    // stays at (threads + 1) sketches however long the column is.
    const size_t wave = std::max<size_t>(size_t{1}, ConfiguredThreadCount());
    for (size_t base = 0; base < chunk_count; base += wave) {
      const size_t batch = std::min(wave, chunk_count - base);
      std::vector<StatisticsSketch> partials(batch);
      EFES_RETURN_IF_ERROR(ParallelFor(batch, [&](size_t i) -> Status {
        const size_t lo = (base + i) * chunk_rows;
        const size_t hi = std::min(lo + chunk_rows, column.size());
        uint64_t chunk_key = 0;
        if (cache != nullptr) {
          chunk_key =
              ChunkSketchKey(column, lo, hi, target_type, options);
          if (std::optional<StatisticsSketch> spilled =
                  cache->LookupSketch(chunk_key)) {
            partials[i] = *std::move(spilled);
            return Status::OK();
          }
        }
        StatisticsSketch sketch(target_type, options);
        EFES_RETURN_IF_ERROR(sketch.AbsorbRange(column, lo, hi));
        if (cache != nullptr) cache->StoreSketch(chunk_key, sketch);
        partials[i] = std::move(sketch);
        return Status::OK();
      }));
      for (size_t i = 0; i < batch; ++i) {
        EFES_RETURN_IF_ERROR(accumulator.Merge(partials[i]));
      }
    }
  }

  if (accumulator.effective_mode() == ApproximationMode::kSketch) {
    sketch_degrades.Increment();
  }
  AttributeStatistics stats = accumulator.Finalize();
  compute_ms.Observe(
      static_cast<double>(Clock::Default()->NowNanos() - start_nanos) / 1e6);
  if (cache != nullptr) cache->StoreStatistics(key, stats);
  return stats;
}

Result<AttributeStatistics> ProfileColumn(const std::vector<Value>& column,
                                          DataType target_type) {
  return ProfileColumn(column, target_type, ActiveProfileOptions());
}

Result<std::vector<AttributeStatistics>> ProfileColumns(
    const std::vector<ProfileRequest>& requests,
    const ProfileOptions& options) {
  std::vector<AttributeStatistics> results(requests.size());
  EFES_RETURN_IF_ERROR(ParallelFor(requests.size(), [&](size_t i) -> Status {
    Result<AttributeStatistics> stats =
        ProfileColumn(*requests[i].column, requests[i].target_type, options);
    if (!stats.ok()) return stats.status();
    results[i] = *std::move(stats);
    return Status::OK();
  }));
  return results;
}

Result<std::vector<AttributeStatistics>> ProfileColumns(
    const std::vector<ProfileRequest>& requests) {
  return ProfileColumns(requests, ActiveProfileOptions());
}

}  // namespace efes
