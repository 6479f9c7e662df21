// Loader/parser for the docs/registry/ manifests consumed by the
// registry check (lint.h). A manifest is a markdown file where each
// registered name is a list line with the name in backticks:
//
//   - `serve.requests.received` — one per request line read
//   - `fault.<point>.hits` (dynamic) — per-point hit counter
//
// Lines containing "(dynamic)" document runtime-built name families and
// are excluded from both directions of the consistency check; every
// other backticked list entry must have a call site, and every call-
// site literal must have an entry.

#ifndef EFES_LINT_REGISTRY_H_
#define EFES_LINT_REGISTRY_H_

#include <string>
#include <string_view>
#include <vector>

#include "efes/common/result.h"

namespace efes::lint {

/// One backtick-quoted name parsed out of a manifest line.
struct ManifestEntry {
  std::string name;
  int line = 0;
};

/// The three docs/registry/ manifests.
struct RegistryManifests {
  std::string metrics_path = "docs/registry/metrics.md";
  std::string faults_path = "docs/registry/faults.md";
  std::string flags_path = "docs/registry/flags.md";
  std::vector<ManifestEntry> metrics;
  std::vector<ManifestEntry> faults;
  std::vector<ManifestEntry> flags;
};

/// Parses one manifest: every line of the form `- \`name\` ...` yields
/// an entry unless the line contains "(dynamic)". Never fails; lines
/// that don't match the grammar are prose.
std::vector<ManifestEntry> ParseManifest(std::string_view content);

/// Reads `<dir>/metrics.md`, `<dir>/faults.md`, `<dir>/flags.md`. A
/// missing manifest is an error — deleting one must fail the check, not
/// silently skip it.
Result<RegistryManifests> LoadRegistryDir(const std::string& dir);

}  // namespace efes::lint

#endif  // EFES_LINT_REGISTRY_H_
