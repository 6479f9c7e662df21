// The single-map blocking of the dedup module, kept as a test oracle.
//
// DedupModule blocks the key cells of a relation in two flat pool
// batches: row ranges are normalized into hash partitions, then each
// partition is grouped on its own (dedup/dedup_module.cc). The
// formulation it replaced is kept here: per relation, one sequential pass
// over every feed's key column into one hash map keyed by the normalized
// key, with the normalization written with <cctype>'s isspace and
// tolower. Key selection and the support check are the module's rules,
// with every column profiled on its own through ProfileColumn. The module
// is differential-tested against it in tests/dedup_blocking_test.cc.

#ifndef EFES_TESTS_DEDUP_REFERENCE_H_
#define EFES_TESTS_DEDUP_REFERENCE_H_

#include <string>
#include <string_view>
#include <vector>

#include "efes/common/result.h"
#include "efes/core/integration_scenario.h"
#include "efes/dedup/dedup_module.h"

namespace efes {

/// NormalizeEntityKey written with std::isspace and std::tolower.
std::string ReferenceNormalizeEntityKey(std::string_view text);

/// The findings DedupModule(options) reports for `scenario` with no
/// cache and exact, unbudgeted profiles, from one blocking map per
/// relation. Provenance ids stay 0.
Result<std::vector<DuplicateClusterFinding>> ReferenceDedupFindings(
    const IntegrationScenario& scenario, const DedupOptions& options);

}  // namespace efes

#endif  // EFES_TESTS_DEDUP_REFERENCE_H_
