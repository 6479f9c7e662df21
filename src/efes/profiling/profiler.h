// The profiling entry points — chunked, budgeted, cache-fronted.
//
// ProfileColumn/ProfileColumns are the only way to compute the Section
// 5.1 statistics. A column is split into ProfileOptions::chunk_rows
// blocks, each block is absorbed into a partial StatisticsSketch on the
// shared pool, and the partials are folded in canonical chunk order — so
// the result is byte-identical for any --threads=N and any chunk size
// (sketch.h explains why), while peak profiling memory is bounded by
// (threads + 1) sketches instead of one map over the whole column.
//
// When a call is given a ProfileCache, the finalized statistics of a
// column are looked up and stored under a key that mixes in the
// approximation mode and budget whenever they can influence the result.
//
// Options and cache are arguments of every call, defaulting to the exact,
// unbudgeted profile and no cache. Estimation modules pass their run's
// (RunContext, core/module.h); nothing is read from process-wide state.

#ifndef EFES_PROFILING_PROFILER_H_
#define EFES_PROFILING_PROFILER_H_

#include <map>
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

/// The values a profile capped at `limit` rows reads (0 = no cap):
/// `column` itself when the cap does not cut it, otherwise a
/// deterministic strided sample of `limit` values. A sample is copied
/// once per column into `samples`, which owns it, so repeated requests
/// for one column share one address and ProfileColumns profiles them
/// once. Use one `samples` map per limit and keep it alive for the
/// ProfileColumns call.
const std::vector<Value>* SampleColumn(
    const std::vector<Value>& column, size_t limit,
    std::map<const std::vector<Value>*, std::vector<Value>>* samples);

/// Profiles one column against `target_type` under `options`, through
/// `cache` when it is non-null. Fails only on a --max-memory budget an
/// exact profile cannot satisfy (kResourceExhausted; kSketch/kAuto
/// degrade instead).
Result<AttributeStatistics> ProfileColumn(const std::vector<Value>& column,
                                          DataType target_type,
                                          const ProfileOptions& options = {},
                                          ProfileCache* cache = nullptr);

/// Profiles many columns through the shared pool, one dynamically
/// balanced task per distinct request; results come back in request
/// order, bit-identical to one ProfileColumn per request.
///
/// Requests with the same column address and target type are profiled
/// once: each distinct request makes one cache lookup and at most one
/// store, and every repeat receives a copy of its first occurrence's
/// result. On failure the status is that of the lowest failing request
/// index. A repeat fails exactly when its first occurrence does, so this
/// is the error a sequential loop over the requests would hit first.
Result<std::vector<AttributeStatistics>> ProfileColumns(
    const std::vector<ProfileRequest>& requests,
    const ProfileOptions& options = {}, ProfileCache* cache = nullptr);

}  // namespace efes

#endif  // EFES_PROFILING_PROFILER_H_
