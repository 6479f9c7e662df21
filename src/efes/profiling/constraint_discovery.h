// Constraint discovery by data profiling.
//
// "Oftentimes constraints are not enforced at the schema level but rather
// at the application level [...] techniques for schema reverse engineering
// and data profiling can reconstruct missing schema descriptions and
// constraints from the data" (Section 3.1). This module mines a database
// instance for NOT NULL, UNIQUE (candidate keys), and unary inclusion
// dependencies (foreign-key candidates) that are *not* already declared,
// giving the complexity assessment the paper's Completeness property.

#ifndef EFES_PROFILING_CONSTRAINT_DISCOVERY_H_
#define EFES_PROFILING_CONSTRAINT_DISCOVERY_H_

#include <vector>

#include "efes/common/result.h"
#include "efes/relational/database.h"
#include "efes/relational/schema.h"

namespace efes {

class ProfileCache;

struct DiscoveryOptions {
  /// Do not propose constraints over tables with fewer rows than this —
  /// tiny samples make every column look unique and non-null.
  size_t min_row_count = 10;

  /// Inclusion dependencies are only proposed when the dependent column
  /// has at least this many distinct values (filters out near-constant
  /// columns that are trivially included everywhere).
  size_t min_distinct_for_ind = 3;

  /// Only propose an inclusion dependency A ⊆ B as an FK candidate when B
  /// is unique (a key-like column).
  bool require_unique_referenced = true;

  /// Skip constraints that are already declared on the schema.
  bool skip_declared = true;

  /// Mine exact unary functional dependencies A -> B. Determinants with
  /// fewer distinct values than this are skipped (near-constant columns
  /// determine everything trivially).
  bool discover_functional_dependencies = true;
  size_t min_distinct_for_fd = 3;
};

/// A discovered constraint with the evidence strength behind it.
struct DiscoveredConstraint {
  Constraint constraint;
  /// Rows supporting the constraint (rows checked without counterexample).
  size_t support = 0;

  std::string ToString() const;
};

/// Profiles `database` and returns constraints that hold exactly on the
/// instance but are not declared in the schema. The result is
/// deterministic (relation/attribute order of the schema). When `cache`
/// is non-null, the result is looked up there first and stored on a miss.
/// Fails when one of its parallel regions fails (a cancellation, an
/// injected `parallel.task` fault, a task exception); then nothing is
/// stored.
Result<std::vector<DiscoveredConstraint>> DiscoverConstraints(
    const Database& database, const DiscoveryOptions& options = {},
    ProfileCache* cache = nullptr);

/// Convenience: returns a copy of the database's schema with all
/// discovered constraints added. Used to "complete" a source before
/// running the detectors.
Result<Schema> SchemaWithDiscoveredConstraints(
    const Database& database, const DiscoveryOptions& options = {},
    ProfileCache* cache = nullptr);

/// Rebuilds the database under the completed schema (same data, plus the
/// discovered constraints). Because discovery mines exact constraints,
/// the rebuilt instance is valid by construction. This realizes the
/// paper's Completeness requirement: "business rules are commonly
/// enforced at the application level and are not reflected in the
/// metadata of the schemas, but should nevertheless be considered" —
/// declared constraints let the detectors short-circuit instance scans
/// and tighten the CSG inference.
Result<Database> DatabaseWithDiscoveredConstraints(
    const Database& database, const DiscoveryOptions& options = {},
    ProfileCache* cache = nullptr);

}  // namespace efes

#endif  // EFES_PROFILING_CONSTRAINT_DISCOVERY_H_
