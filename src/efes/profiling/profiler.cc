#include "efes/profiling/profiler.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "efes/cache/fingerprint.h"
#include "efes/cache/profile_cache.h"
#include "efes/common/clock.h"
#include "efes/common/metrics.h"
#include "efes/common/parallel.h"
#include "efes/telemetry/trace.h"

namespace efes {

namespace {

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

}  // namespace

const std::vector<Value>* ProfileMemo::Sample(const std::vector<Value>& column,
                                              size_t limit) {
  if (limit == 0 || column.size() <= limit) return &column;
  auto [it, inserted] = samples_.try_emplace(std::make_pair(&column, limit));
  if (inserted) {
    std::vector<Value>& sample = it->second;
    sample.reserve(limit);
    const double stride =
        static_cast<double>(column.size()) / static_cast<double>(limit);
    for (size_t i = 0; i < limit; ++i) {
      sample.push_back(column[static_cast<size_t>(i * stride)]);
    }
  }
  return &it->second;
}

Result<AttributeStatistics> ProfileColumn(const std::vector<Value>& column,
                                          DataType target_type,
                                          const ProfileOptions& options,
                                          ProfileCache* cache) {
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

  uint64_t key = 0;
  if (cache != nullptr) {
    key = StatisticsKey(column, target_type, options);
    if (std::optional<AttributeStatistics> hit =
            cache->LookupStatistics(key)) {
      return *std::move(hit);
    }
  }

  TraceSpan span("profiling.column");
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
        StatisticsSketch sketch(target_type, options);
        EFES_RETURN_IF_ERROR(sketch.AbsorbRange(column, lo, hi));
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

Result<std::vector<AttributeStatistics>> ProfileColumns(
    const std::vector<ProfileRequest>& requests,
    const ProfileOptions& options, ProfileCache* cache, ProfileMemo* memo) {
  ProfileMemo call_local;
  std::map<ProfileMemo::Key, AttributeStatistics>& known =
      (memo != nullptr ? memo : &call_local)->profiles_;
  auto key_of = [&](size_t i) {
    return ProfileMemo::Key(requests[i].column, requests[i].target_type);
  };

  // The first request of every (column, target type) pair the memo does
  // not hold, in request order. Missing requests keep their relative
  // order, so ParallelFor's lowest failing index is the lowest failing
  // request.
  std::vector<size_t> missing;
  std::set<ProfileMemo::Key> pending;
  for (size_t i = 0; i < requests.size(); ++i) {
    const ProfileMemo::Key key = key_of(i);
    if (known.count(key) == 0 && pending.insert(key).second) {
      missing.push_back(i);
    }
  }

  std::vector<AttributeStatistics> profiled(missing.size());
  EFES_RETURN_IF_ERROR(ParallelFor(missing.size(), [&](size_t m) -> Status {
    const ProfileRequest& request = requests[missing[m]];
    EFES_ASSIGN_OR_RETURN(
        profiled[m],
        ProfileColumn(*request.column, request.target_type, options, cache));
    return Status::OK();
  }));
  for (size_t m = 0; m < missing.size(); ++m) {
    known.emplace(key_of(missing[m]), std::move(profiled[m]));
  }

  std::vector<AttributeStatistics> results;
  results.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    results.push_back(known.at(key_of(i)));
  }
  return results;
}

}  // namespace efes
