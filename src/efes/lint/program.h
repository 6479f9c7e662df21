// The whole-program checks of efes_lint (lint.h): lock-discipline,
// cancellation, layering, and registry over the merged per-file
// summaries, plus the pieces lint.cc shares with them.

#ifndef EFES_LINT_PROGRAM_H_
#define EFES_LINT_PROGRAM_H_

#include <string>
#include <string_view>
#include <vector>

#include "efes/lint/lint.h"

namespace efes::lint {

inline constexpr std::string_view kLockDiscipline = "lock-discipline";
inline constexpr std::string_view kCancellation = "cancellation";
inline constexpr std::string_view kLayering = "layering";
inline constexpr std::string_view kRegistry = "registry";

/// True when `path` contains any of the `patterns` substrings.
bool PathMatchesAny(std::string_view path,
                    const std::vector<std::string>& patterns);

/// Appends the whole-program findings over `summaries`; the registry
/// check runs only when `registry` is non-null.
void CheckProgram(const std::vector<FileSummary>& summaries,
                  const LintConfig& config,
                  const RegistryManifests* registry,
                  std::vector<Finding>* findings);

}  // namespace efes::lint

#endif  // EFES_LINT_PROGRAM_H_
