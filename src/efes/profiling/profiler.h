// The profiling entry points — budgeted, cache-fronted.
//
// ProfileColumn/ProfileColumns are the only way to compute the Section
// 5.1 statistics of an in-memory column. ProfileColumn absorbs the whole
// column into one StatisticsSketch, in row order, and finalizes it, so
// the statistics, and an exact --max-memory refusal with the bytes at
// the column's first overflow, depend only on the column and the
// options. ProfileColumns is where the parallelism is: one task per
// distinct column of a batch.
//
// When a call is given a ProfileCache, the finalized statistics of a
// column are looked up and stored under a key that mixes in the
// approximation mode and budget whenever they can influence the result.
//
// Options and cache are arguments of every call, defaulting to the exact,
// unbudgeted profile and no cache; ProfileOptions::chunk_rows is not
// read here (it is the streaming reader's block size). Estimation
// modules pass their run's (RunContext, core/module.h); nothing is read
// from process-wide state.
// A run also passes its ProfileMemo, so each (column, target type) pair
// is profiled once per run however many modules ask for it.

#ifndef EFES_PROFILING_PROFILER_H_
#define EFES_PROFILING_PROFILER_H_

#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "efes/common/result.h"
#include "efes/profiling/sketch.h"
#include "efes/profiling/statistics.h"
#include "efes/relational/value.h"

namespace efes {

class ProfileCache;

/// One column to profile in a batch. The referenced column must outlive
/// the ProfileColumns call.
struct ProfileRequest {
  const std::vector<Value>* column = nullptr;
  DataType target_type = DataType::kText;
};

class ProfileMemo;

/// Profiles one column against `target_type` under `options`, through
/// `cache` when it is non-null. Fails only on a --max-memory budget an
/// exact profile cannot satisfy (kResourceExhausted; kSketch/kAuto
/// degrade instead).
Result<AttributeStatistics> ProfileColumn(const std::vector<Value>& column,
                                          DataType target_type,
                                          const ProfileOptions& options = {},
                                          ProfileCache* cache = nullptr);

/// Profiles many columns through the shared pool, one dynamically
/// balanced task per distinct request the memo does not hold yet;
/// results come back in request order, bit-identical to one
/// ProfileColumn per request.
///
/// Requests with the same column address and target type are profiled
/// once: a request is answered from `memo` first, then from `cache`,
/// and computed only when both miss. Each distinct request the memo
/// misses makes one cache lookup and at most one store, and every
/// repeat receives a copy of the same result. A null `memo` stands for
/// an empty one that lives for this call. The memo is filled only when
/// the whole batch succeeds; on failure the status is that of the
/// lowest failing request index. A repeat fails exactly when its first
/// occurrence does, so this is the error a sequential loop over the
/// requests would hit first.
Result<std::vector<AttributeStatistics>> ProfileColumns(
    const std::vector<ProfileRequest>& requests,
    const ProfileOptions& options = {}, ProfileCache* cache = nullptr,
    ProfileMemo* memo = nullptr);

/// The profiles one run has computed or read from its cache, shared by
/// the run's modules through RunContext, and the column samples those
/// profiles were taken of. The engine keeps one on the stack of each run,
/// so nothing outlives the run: --no-cache keeps its meaning, and
/// concurrent runs share only the ProfileCache they are given.
///
/// Profiles are keyed by (column address, target type); the run's
/// ProfileOptions are fixed, so they are not part of the key. A key must
/// stay valid as long as the memo: name only columns of the run's
/// scenario, or samples the memo itself owns. One run's modules profile
/// one after another on the run's thread, so the memo has no lock.
class ProfileMemo {
 public:
  ProfileMemo() = default;
  ProfileMemo(const ProfileMemo&) = delete;
  ProfileMemo& operator=(const ProfileMemo&) = delete;

  /// The values a profile capped at `limit` rows reads (0 = no cap):
  /// `column` itself when the cap does not cut it, otherwise a
  /// deterministic strided sample of `limit` values. The sample is copied
  /// once per (column, limit) and lives as long as the memo, so every
  /// module that samples a column at one limit gets one address, and no
  /// sample address is freed and reused within a run.
  const std::vector<Value>* Sample(const std::vector<Value>& column,
                                   size_t limit);

 private:
  friend Result<std::vector<AttributeStatistics>> ProfileColumns(
      const std::vector<ProfileRequest>& requests,
      const ProfileOptions& options, ProfileCache* cache, ProfileMemo* memo);

  using Key = std::pair<const std::vector<Value>*, DataType>;
  std::map<Key, AttributeStatistics> profiles_;
  std::map<std::pair<const std::vector<Value>*, size_t>, std::vector<Value>>
      samples_;
};

}  // namespace efes

#endif  // EFES_PROFILING_PROFILER_H_
