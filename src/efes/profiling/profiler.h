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
// When a ProfileCache is active, the finalized statistics of a column
// are looked up and stored under a key that mixes in the approximation
// mode and budget whenever they can influence the result.
//
// Options are threaded the PR-5 way: explicitly per call, or ambient
// via ScopedProfileOptions (installed by EfesEngine::Run from
// RunOptions::profile, and by the CLI from --chunk-rows / --max-memory
// / --approx).

#ifndef EFES_PROFILING_PROFILER_H_
#define EFES_PROFILING_PROFILER_H_

#include <vector>

#include "efes/common/result.h"
#include "efes/profiling/sketch.h"
#include "efes/profiling/statistics.h"
#include "efes/relational/value.h"

namespace efes {

/// One column to profile in a batch. The referenced column must outlive
/// the ProfileColumns call.
struct ProfileRequest {
  const std::vector<Value>* column = nullptr;
  DataType target_type = DataType::kText;
};

/// The ambient options consulted by the single-argument overloads: those
/// of the most recently installed live ScopedProfileOptions, or defaults
/// when none is installed.
ProfileOptions ActiveProfileOptions();

/// RAII activation of ambient profile options: installs a copy for the
/// scope's lifetime. Nested scopes shadow outer ones. Overlapping scopes
/// of concurrent runs may end in any order; each removes only its own
/// copy, so no scope ever leaves the ambient options pointing at a
/// destroyed one.
class ScopedProfileOptions {
 public:
  explicit ScopedProfileOptions(const ProfileOptions& options);
  ~ScopedProfileOptions();

  ScopedProfileOptions(const ScopedProfileOptions&) = delete;
  ScopedProfileOptions& operator=(const ScopedProfileOptions&) = delete;

 private:
  friend ProfileOptions ActiveProfileOptions();

  ProfileOptions options_;
};

/// Profiles one column against `target_type`. Fails only on a
/// --max-memory budget an exact profile cannot satisfy
/// (kResourceExhausted; kSketch/kAuto degrade instead).
Result<AttributeStatistics> ProfileColumn(const std::vector<Value>& column,
                                          DataType target_type,
                                          const ProfileOptions& options);
Result<AttributeStatistics> ProfileColumn(const std::vector<Value>& column,
                                          DataType target_type);

/// Profiles many columns through the shared pool; results come back in
/// request order, bit-identical to profiling sequentially.
Result<std::vector<AttributeStatistics>> ProfileColumns(
    const std::vector<ProfileRequest>& requests,
    const ProfileOptions& options);
Result<std::vector<AttributeStatistics>> ProfileColumns(
    const std::vector<ProfileRequest>& requests);

}  // namespace efes

#endif  // EFES_PROFILING_PROFILER_H_
