// SARIF 2.1.0 serialization for efes_lint findings (`--format=sarif`).
// SARIF is the interchange format CI systems (GitHub code scanning,
// Azure DevOps, VS Code SARIF viewers) ingest to annotate findings
// inline on changed files.
//
// The emitted document is deliberately minimal but valid: one run, one
// driver with a rule per distinct check id, one result per finding.
// Suppressed findings are carried with an in-source `suppressions`
// entry (consumers treat them as reviewed), unsuppressed ones at level
// "error" — mirroring the tool's exit-code contract.

#ifndef EFES_LINT_SARIF_H_
#define EFES_LINT_SARIF_H_

#include <string>
#include <vector>

#include "efes/lint/lint.h"

namespace efes::lint {

/// Renders `findings` as a SARIF 2.1.0 document whose tool is
/// "efes_lint". Rules are the sorted distinct check ids present in
/// `findings`; output is deterministic for a fixed finding list.
std::string RenderSarif(const std::vector<Finding>& findings);

}  // namespace efes::lint

#endif  // EFES_LINT_SARIF_H_
